#include "sim/widget.h"

namespace bh {

void
Widget::transfer(StateIo &io)
{
    io.u64(counter);
}

} // namespace bh
