// Fixture: `missed` is declared but never transferred (the classic
// added-a-field-forgot-the-snapshot bug); `tuned` carries a skip
// annotation with no reason, which must itself be reported and must
// NOT suppress the coverage finding.
#pragma once

namespace bh {

class Widget {
  public:
    void transfer(StateIo &io);

  private:
    unsigned counter = 0;
    unsigned missed = 0;
    unsigned tuned = 0;  // bh-audit: skip(tuned)
};

} // namespace bh
