// Fixture: a StateIo transfer that range-fors a hash container — byte
// output would depend on implementation-defined iteration order.
#pragma once

#include <cstdint>
#include <unordered_map>

namespace bh {

class Exporter {
  public:
    void transfer(StateIo &io)
    {
        for (auto &kv : table)
            io.u64(kv.second);
    }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> table;
};

} // namespace bh
