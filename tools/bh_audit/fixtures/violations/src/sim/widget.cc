#include "sim/widget.h"

#include <chrono>

namespace bh {

void
Widget::transfer(StateIo &io)
{
    io.u64(counter);
}

std::uint64_t
tickMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace bh
