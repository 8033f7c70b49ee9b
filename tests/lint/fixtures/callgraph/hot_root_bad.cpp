// Pretends to live at src/sim/drain_bad.cpp. hot-path-transitive at
// depth 0: the marked function's own body allocates and grows.
#include <memory>
#include <vector>

struct Q {
  std::vector<int> v;
  // dqos-lint: hot
  void drain() {
    int* p = new int(3);
    auto u = std::make_unique<int>(4);
    v.push_back(*p);
    delete p;
  }
  void cold() { v.push_back(1); }  // unmarked: growth is fine here
};
