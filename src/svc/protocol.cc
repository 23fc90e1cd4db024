#include "svc/protocol.h"

#include "sim/redteam.h"
#include "sim/result_store.h"

namespace bh::svc {

bool
parseMessage(const std::string &payload, JsonValue *out,
             std::string *error)
{
    if (!JsonValue::parse(payload, out, error))
        return false;
    if (!out->isObject()) {
        if (error)
            *error = "message is not a JSON object";
        return false;
    }
    const JsonValue *type = out->find("type");
    if (type == nullptr || !type->isString()) {
        if (error)
            *error = "message has no string \"type\"";
        return false;
    }
    return true;
}

std::string
messageType(const JsonValue &msg)
{
    const JsonValue *type = msg.isObject() ? msg.find("type") : nullptr;
    return type != nullptr && type->isString() ? type->asString() : "";
}

bool
mitigationFromName(const std::string &name, MitigationType *out)
{
    static constexpr MitigationType kAll[] = {
        MitigationType::kNone,  MitigationType::kPara,
        MitigationType::kGraphene, MitigationType::kHydra,
        MitigationType::kTwice, MitigationType::kAqua,
        MitigationType::kRega,  MitigationType::kRfm,
        MitigationType::kPrac,  MitigationType::kBlockHammer,
    };
    for (MitigationType type : kAll)
        if (name == mitigationName(type)) {
            *out = type;
            return true;
        }
    return false;
}

JsonValue
experimentConfigToJson(const ExperimentConfig &config)
{
    JsonValue mix = JsonValue::object();
    mix.set("name", config.mix.name);
    mix.set("pattern", config.mix.pattern);
    JsonValue slots = JsonValue::array();
    for (const WorkloadSlot &slot : config.mix.slots) {
        JsonValue s = JsonValue::object();
        const char *kind = "benign";
        if (slot.kind == WorkloadSlot::Kind::kAttacker)
            kind = "attacker";
        else if (slot.kind == WorkloadSlot::Kind::kAdaptiveAttacker)
            kind = "adaptive_attacker";
        s.set("kind", kind);
        s.set("app", slot.appName);
        JsonValue a = JsonValue::object();
        a.set("pattern", static_cast<unsigned>(slot.attacker.pattern));
        a.set("aggressors", slot.attacker.numAggressors);
        a.set("row_base", slot.attacker.rowBase);
        a.set("row_spacing", slot.attacker.rowSpacing);
        a.set("banks", slot.attacker.numBanks);
        a.set("bubbles", slot.attacker.bubbles);
        s.set("attacker", std::move(a));
        JsonValue ad = JsonValue::object();
        ad.set("observe_every", slot.adaptive.observeEvery);
        ad.set("max_bubbles", slot.adaptive.maxBubbles);
        ad.set("rotation_stride", slot.adaptive.rotationStride);
        ad.set("calm_streak", slot.adaptive.calmStreak);
        ad.set("group_size", slot.adaptive.groupSize);
        ad.set("slot_index", slot.adaptive.slotIndex);
        ad.set("handoff_epoch", slot.adaptive.handoffEpoch);
        s.set("adaptive", std::move(ad));
        slots.push(std::move(s));
    }
    mix.set("slots", std::move(slots));

    JsonValue bh = JsonValue::object();
    bh.set("window", config.bh.window);
    bh.set("th_threat", config.bh.thThreat);
    bh.set("th_outlier", config.bh.thOutlier);
    bh.set("p_old_suspect", config.bh.pOldSuspect);
    bh.set("p_new_suspect", config.bh.pNewSuspect);
    bh.set("winner_takes_all",
           config.bh.attribution == ScoreAttribution::kWinnerTakesAll);
    bh.set("single_counter_set", config.bh.singleCounterSet);

    JsonValue out = JsonValue::object();
    out.set("mix", std::move(mix));
    out.set("mechanism", mitigationName(config.mechanism));
    out.set("nrh", config.nRh);
    out.set("breakhammer", config.breakHammer);
    out.set("bh", std::move(bh));
    out.set("instructions", config.instructions);
    out.set("oracle", config.oracle);
    out.set("blunt_throttle", config.bluntThrottle);
    out.set("seed", config.seed);
    out.set("channels", config.channels);
    out.set("ranks", config.ranks);
    out.set("redteam", config.redteam);
    return out;
}

namespace {

/** Typed member lookups that fail soft (codec rejects, never aborts). */
const JsonValue *
member(const JsonValue &v, const char *key, JsonValue::Type type)
{
    const JsonValue *m = v.isObject() ? v.find(key) : nullptr;
    return m != nullptr && m->type() == type ? m : nullptr;
}

/** Member @p key iff it is a number asU64() reads exactly. */
const JsonValue *
u64Member(const JsonValue &v, const char *key)
{
    const JsonValue *m = member(v, key, JsonValue::Type::kNumber);
    return m != nullptr && m->isU64() ? m : nullptr;
}

} // namespace

bool
experimentConfigFromJson(const JsonValue &v, ExperimentConfig *out)
{
    const JsonValue *mix = member(v, "mix", JsonValue::Type::kObject);
    const JsonValue *mech = member(v, "mechanism", JsonValue::Type::kString);
    const JsonValue *nrh = u64Member(v, "nrh");
    const JsonValue *bh_on =
        member(v, "breakhammer", JsonValue::Type::kBool);
    const JsonValue *bh = member(v, "bh", JsonValue::Type::kObject);
    const JsonValue *insts = u64Member(v, "instructions");
    const JsonValue *oracle = member(v, "oracle", JsonValue::Type::kBool);
    const JsonValue *blunt =
        member(v, "blunt_throttle", JsonValue::Type::kBool);
    const JsonValue *seed = u64Member(v, "seed");
    const JsonValue *channels = u64Member(v, "channels");
    const JsonValue *ranks = u64Member(v, "ranks");
    const JsonValue *redteam =
        member(v, "redteam", JsonValue::Type::kString);
    if (!mix || !mech || !nrh || !bh_on || !bh || !insts || !oracle ||
        !blunt || !seed || !channels || !ranks || !redteam)
        return false;

    const JsonValue *mix_name =
        member(*mix, "name", JsonValue::Type::kString);
    const JsonValue *mix_pattern =
        member(*mix, "pattern", JsonValue::Type::kString);
    const JsonValue *slots =
        member(*mix, "slots", JsonValue::Type::kArray);
    if (!mix_name || !mix_pattern || !slots)
        return false;

    ExperimentConfig config;
    if (!mitigationFromName(mech->asString(), &config.mechanism))
        return false;
    config.mix.name = mix_name->asString();
    config.mix.pattern = mix_pattern->asString();
    for (std::size_t i = 0; i < slots->size(); ++i) {
        const JsonValue &s = slots->at(i);
        const JsonValue *kind = member(s, "kind", JsonValue::Type::kString);
        const JsonValue *app = member(s, "app", JsonValue::Type::kString);
        const JsonValue *att =
            member(s, "attacker", JsonValue::Type::kObject);
        const JsonValue *adp =
            member(s, "adaptive", JsonValue::Type::kObject);
        if (!kind || !app || !att || !adp)
            return false;
        const JsonValue *pattern = u64Member(*att, "pattern");
        const JsonValue *aggr = u64Member(*att, "aggressors");
        const JsonValue *row_base = u64Member(*att, "row_base");
        const JsonValue *row_spacing = u64Member(*att, "row_spacing");
        const JsonValue *banks = u64Member(*att, "banks");
        const JsonValue *bubbles = u64Member(*att, "bubbles");
        if (!pattern || !aggr || !row_base || !row_spacing || !banks ||
            !bubbles || pattern->asU64() > 2)
            return false;
        const JsonValue *observe = u64Member(*adp, "observe_every");
        const JsonValue *max_bubbles = u64Member(*adp, "max_bubbles");
        const JsonValue *stride = u64Member(*adp, "rotation_stride");
        const JsonValue *calm = u64Member(*adp, "calm_streak");
        const JsonValue *group = u64Member(*adp, "group_size");
        const JsonValue *slot_index = u64Member(*adp, "slot_index");
        const JsonValue *handoff = u64Member(*adp, "handoff_epoch");
        if (!observe || !max_bubbles || !stride || !calm || !group ||
            !slot_index || !handoff)
            return false;
        WorkloadSlot slot;
        if (kind->asString() == "attacker")
            slot.kind = WorkloadSlot::Kind::kAttacker;
        else if (kind->asString() == "adaptive_attacker")
            slot.kind = WorkloadSlot::Kind::kAdaptiveAttacker;
        else if (kind->asString() == "benign")
            slot.kind = WorkloadSlot::Kind::kBenign;
        else
            return false;
        slot.appName = app->asString();
        slot.attacker.pattern =
            static_cast<AttackPattern>(pattern->asU64());
        slot.attacker.numAggressors =
            static_cast<unsigned>(aggr->asU64());
        slot.attacker.rowBase = static_cast<unsigned>(row_base->asU64());
        slot.attacker.rowSpacing =
            static_cast<unsigned>(row_spacing->asU64());
        slot.attacker.numBanks = static_cast<unsigned>(banks->asU64());
        slot.attacker.bubbles =
            static_cast<std::uint32_t>(bubbles->asU64());
        slot.adaptive.observeEvery =
            static_cast<unsigned>(observe->asU64());
        slot.adaptive.maxBubbles =
            static_cast<std::uint32_t>(max_bubbles->asU64());
        slot.adaptive.rotationStride =
            static_cast<unsigned>(stride->asU64());
        slot.adaptive.calmStreak = static_cast<unsigned>(calm->asU64());
        slot.adaptive.groupSize = static_cast<unsigned>(group->asU64());
        slot.adaptive.slotIndex =
            static_cast<unsigned>(slot_index->asU64());
        slot.adaptive.handoffEpoch = handoff->asU64();
        config.mix.slots.push_back(std::move(slot));
    }

    const JsonValue *window = u64Member(*bh, "window");
    const JsonValue *th_threat =
        member(*bh, "th_threat", JsonValue::Type::kNumber);
    const JsonValue *th_outlier =
        member(*bh, "th_outlier", JsonValue::Type::kNumber);
    const JsonValue *p_old = u64Member(*bh, "p_old_suspect");
    const JsonValue *p_new = u64Member(*bh, "p_new_suspect");
    const JsonValue *wta =
        member(*bh, "winner_takes_all", JsonValue::Type::kBool);
    const JsonValue *single =
        member(*bh, "single_counter_set", JsonValue::Type::kBool);
    if (!window || !th_threat || !th_outlier || !p_old || !p_new || !wta ||
        !single)
        return false;
    config.bh.window = window->asU64();
    config.bh.thThreat = th_threat->asDouble();
    config.bh.thOutlier = th_outlier->asDouble();
    config.bh.pOldSuspect = static_cast<unsigned>(p_old->asU64());
    config.bh.pNewSuspect = static_cast<unsigned>(p_new->asU64());
    config.bh.attribution = wta->asBool()
                                ? ScoreAttribution::kWinnerTakesAll
                                : ScoreAttribution::kProportional;
    config.bh.singleCounterSet = single->asBool();

    config.nRh = static_cast<unsigned>(nrh->asU64());
    config.breakHammer = bh_on->asBool();
    config.instructions = insts->asU64();
    config.oracle = oracle->asBool();
    config.bluntThrottle = blunt->asBool();
    config.seed = seed->asU64();
    config.channels = static_cast<unsigned>(channels->asU64());
    config.ranks = static_cast<unsigned>(ranks->asU64());
    // Empty = canonical fixed attackers; non-empty must be a canonical
    // strategy spec (the worker's runExperiment() aborts on garbage, so
    // reject it at the wire instead).
    config.redteam = redteam->asString();
    if (!config.redteam.empty()) {
        RedteamStrategy strategy;
        if (!parseRedteamStrategy(config.redteam, &strategy))
            return false;
    }
    *out = std::move(config);
    return true;
}

JsonValue
makeHello(unsigned jobs, const std::string &worker_name)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "hello");
    msg.set("proto", kProtocolVersion);
    msg.set("schema", ResultStore::kSchemaVersion);
    msg.set("jobs", jobs);
    msg.set("name", worker_name);
    return msg;
}

JsonValue
makeHelloOk()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "hello_ok");
    msg.set("proto", kProtocolVersion);
    msg.set("schema", ResultStore::kSchemaVersion);
    return msg;
}

JsonValue
makeLeaseRequest()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "lease_request");
    return msg;
}

JsonValue
makeLease(const std::string &key, const ExperimentConfig &config,
          std::uint64_t deadline_ms)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "lease");
    msg.set("key", key);
    msg.set("config", experimentConfigToJson(config));
    msg.set("deadline_ms", deadline_ms);
    return msg;
}

JsonValue
makeHeartbeat(const std::string &key)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "heartbeat");
    msg.set("key", key);
    return msg;
}

JsonValue
makeResult(const std::string &key, JsonValue payload)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "result");
    msg.set("key", key);
    msg.set("payload", std::move(payload));
    return msg;
}

JsonValue
makeSolo(const std::string &app, std::uint64_t insts, double ipc)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "solo");
    msg.set("app", app);
    msg.set("insts", insts);
    msg.set("ipc", ipc);
    return msg;
}

JsonValue
makeDone()
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "done");
    return msg;
}

JsonValue
makeError(const std::string &message)
{
    JsonValue msg = JsonValue::object();
    msg.set("type", "error");
    msg.set("message", message);
    return msg;
}

} // namespace bh::svc
