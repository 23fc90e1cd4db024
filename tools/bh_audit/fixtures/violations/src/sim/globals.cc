// Process-wide mutable state the global-state rule must flag.
#include <mutex>
#include <string>

namespace bh {

thread_local int tlDepth = 0;

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

const std::string *&
currentName()
{
    static const std::string *name = nullptr;
    return name;
}

} // namespace bh
