#include "sim/sweep.h"

#include <set>
#include <utility>

namespace bh {

SweepSpec &
SweepSpec::mix(MixSpec m)
{
    mixes_.push_back(std::move(m));
    return *this;
}

SweepSpec &
SweepSpec::mixes(const std::vector<MixSpec> &ms)
{
    mixes_.insert(mixes_.end(), ms.begin(), ms.end());
    return *this;
}

SweepSpec &
SweepSpec::mixClasses(const std::vector<std::string> &patterns,
                      unsigned per_class)
{
    for (const std::string &pattern : patterns)
        for (unsigned i = 0; i < per_class; ++i)
            mixes_.push_back(makeMix(pattern, i));
    return *this;
}

SweepSpec &
SweepSpec::mechanism(MitigationType m)
{
    mechanisms_.push_back(m);
    return *this;
}

SweepSpec &
SweepSpec::mechanisms(const std::vector<MitigationType> &ms)
{
    mechanisms_.insert(mechanisms_.end(), ms.begin(), ms.end());
    return *this;
}

SweepSpec &
SweepSpec::nRh(unsigned n)
{
    nRh_ = {n};
    return *this;
}

SweepSpec &
SweepSpec::nRhValues(const std::vector<unsigned> &values)
{
    nRh_ = values;
    return *this;
}

SweepSpec &
SweepSpec::breakHammer(bool on)
{
    breakHammer_ = {on};
    return *this;
}

SweepSpec &
SweepSpec::breakHammerAxis()
{
    breakHammer_ = {false, true};
    return *this;
}

SweepSpec &
SweepSpec::withBaselines()
{
    baselines_ = true;
    return *this;
}

SweepSpec &
SweepSpec::instructions(std::uint64_t n)
{
    instructions_ = n;
    return *this;
}

SweepSpec &
SweepSpec::oracle(bool on)
{
    oracle_ = on;
    return *this;
}

SweepSpec &
SweepSpec::variant(std::string label,
                   std::function<void(ExperimentConfig &)> apply)
{
    variants_.push_back({std::move(label), std::move(apply)});
    return *this;
}

SweepSpec &
SweepSpec::forEach(std::function<void(ExperimentConfig &)> tweak)
{
    tweaks_.push_back(std::move(tweak));
    return *this;
}

SweepSpec &
SweepSpec::merge(const SweepSpec &other)
{
    std::vector<ExperimentConfig> points = other.expand();
    merged_.insert(merged_.end(), points.begin(), points.end());
    return *this;
}

ExperimentConfig
SweepSpec::baselinePoint(const MixSpec &mix)
{
    ExperimentConfig cfg;
    cfg.mix = mix;
    cfg.mechanism = MitigationType::kNone;
    cfg.nRh = 1024;
    cfg.breakHammer = false;
    return cfg;
}

std::vector<ExperimentConfig>
SweepSpec::expand() const
{
    std::vector<ExperimentConfig> out;
    for (const MixSpec &m : mixes_) {
        if (baselines_) {
            ExperimentConfig base = baselinePoint(m);
            // The baseline must run at the same horizon as the points it
            // normalizes, or speedup ratios would compare runs of
            // different lengths; every other field stays canonical.
            base.instructions = instructions_;
            out.push_back(base);
        }
        // An unset mechanism axis means "no mitigation", like the other
        // axes' neutral defaults — never a silently empty grid.
        static const std::vector<MitigationType> kNoMitigation = {
            MitigationType::kNone};
        const std::vector<MitigationType> &mechs =
            mechanisms_.empty() ? kNoMitigation : mechanisms_;
        for (unsigned n_rh : nRh_) {
            for (MitigationType mech : mechs) {
                for (bool bh_on : breakHammer_) {
                    ExperimentConfig base;
                    base.mix = m;
                    base.mechanism = mech;
                    base.nRh = n_rh;
                    base.breakHammer = bh_on;
                    base.instructions = instructions_;
                    base.oracle = oracle_;
                    for (const auto &tweak : tweaks_)
                        tweak(base);
                    if (variants_.empty()) {
                        out.push_back(base);
                        continue;
                    }
                    for (const SweepVariant &v : variants_) {
                        ExperimentConfig cfg = base;
                        if (v.apply)
                            v.apply(cfg);
                        out.push_back(cfg);
                    }
                }
            }
        }
    }
    out.insert(out.end(), merged_.begin(), merged_.end());
    return out;
}

std::vector<ExperimentConfig>
expandWorkUnits(const std::vector<ExperimentConfig> &configs)
{
    std::vector<ExperimentConfig> units;
    std::set<std::string> seen;
    for (const ExperimentConfig &config : configs) {
        // Resolve before keying, like every persistent-cache consumer:
        // the defaulted form would alias every horizon to one address.
        ExperimentConfig resolved = resolveExperimentConfig(config);
        if (seen.insert(experimentKey(resolved)).second)
            units.push_back(std::move(resolved));
    }
    return units;
}

} // namespace bh
