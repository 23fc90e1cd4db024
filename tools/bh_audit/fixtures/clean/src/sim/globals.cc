// Statics the global-state rule must leave alone, plus one reasoned skip.
#include <map>
#include <string>

namespace bh {

struct Table
{
    static constexpr unsigned kSize = 4;
    static unsigned clamp(unsigned v) { return v < kSize ? v : kSize; }
};

static unsigned
twice(unsigned v)
{
    return 2 * static_cast<unsigned>(v);
}

const std::string &
defaultName()
{
    static const std::string name = "none";
    static const char *const kAliases[] = {"a", "b"};
    (void)kAliases;
    return name;
}

std::map<unsigned, unsigned> &
memo()
{
    // bh-audit: skip(global-state) -- memo of a pure function
    static std::map<unsigned, unsigned> cache;
    return cache;
}

} // namespace bh
