// Process-wide mutable state the global-state rule must flag, and an
// environment read the getenv rule must flag.
#include <cstdlib>
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

bool
denseFromEnvironment()
{
    return std::getenv("BH_DENSE_TICK") != nullptr;
}

} // namespace bh
