// Pretends to live at src/fab/shard_chain.cpp. The shard region itself
// only calls a helper — but the helper reaches the calendar directly,
// which only the call-graph walk past depth 0 can see.
namespace fab {

struct Calendar {
  void schedule_at(long t);
};
void Calendar::schedule_at(long t) { (void)t; }

struct Worker {
  Calendar cal;
  void post(long t);
  void relay(long t);
  void step(long t);
};

void Worker::post(long t) { cal.schedule_at(t); }

void Worker::relay(long t) { post(t); }

void Worker::step(long t) {
  // dqos-lint: shard
  {
    relay(t);
  }
}

}  // namespace fab
