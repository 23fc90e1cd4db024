// Fixture: fully covered snapshot class — every member is transferred
// or carries a reasoned skip. The selftest requires zero findings.
#pragma once

namespace bh {

class Widget {
  public:
    void transfer(StateIo &io);

  private:
    unsigned counter = 0;
    unsigned capacity;  // bh-audit: skip(capacity) -- constructor config
};

} // namespace bh
