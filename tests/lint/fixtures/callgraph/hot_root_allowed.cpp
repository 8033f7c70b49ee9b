// Pretends to live at src/sim/drain_ok.cpp. A marked hot function lints
// clean when its body is allocation-free; a deliberate, justified
// allocation is waivable with an allow marker.
#include <vector>

struct Q {
  std::vector<int> v;
  void setup() { v.reserve(64); }  // unmarked setup: growth is fine
  // dqos-lint: hot
  void drain() {
    // dqos-lint: allow(hot-path-transitive)
    v.push_back(1);   // waived: cold slow-path inside the hot function
    const int x = v.back();
    v.pop_back();
    v.clear();
    (void)x;
  }
};
