/**
 * @file
 * Sweep-service message vocabulary.
 *
 * Every frame payload (svc/frame.h) is one compact JSON object with a
 * "type" member. The worker speaks first:
 *
 *   worker -> coordinator                coordinator -> worker
 *   ---------------------                ---------------------
 *   hello {proto, schema, jobs, name}    hello_ok {proto, schema}
 *   lease_request {}                     lease {key, config, deadline_ms}
 *   heartbeat {key}                      done {}
 *   result {key, payload}                error {message}
 *   solo {app, insts, ipc}
 *
 * A lease_request with no pending work is not answered immediately: the
 * coordinator parks it and replies with a lease the moment one frees up
 * (a worker died and its lease expired), or with `done` when every unit
 * has completed. `error` precedes a coordinator-initiated close (e.g.,
 * schema mismatch — a worker built from different sources would poison
 * the store with records the coordinator cannot reproduce).
 *
 * The lease carries the full *resolved* ExperimentConfig — not just the
 * content key — so a worker needs no environment agreement with the
 * coordinator: BH_INSTS, --channels and --ranks are all resolved into
 * explicit fields on the coordinator before leasing, and the config
 * round-trips exactly (doubles at 17 significant digits, the same rule
 * the result schema uses).
 */
#pragma once

#include <string>

#include "sim/experiment.h"
#include "stats/json.h"

namespace bh::svc {

/** Wire-protocol revision; bumped on message-shape changes.
 *  v2: slot codec carries the attacker pattern, the adaptive-attacker
 *  slot kind and parameters, and the config's red-team strategy spec.
 *  v3: the config codec's members are exactly mix, mechanism, nrh,
 *  breakhammer, bh, instructions, oracle, blunt_throttle, seed,
 *  channels, ranks and redteam. */
constexpr std::uint64_t kProtocolVersion = 3;

/**
 * Parse one frame payload into a message object. Enforces the envelope
 * only (valid JSON, an object, a string "type"); per-type members are
 * checked by the handlers.
 * @return false (with @p error set) on garbage.
 */
bool parseMessage(const std::string &payload, JsonValue *out,
                  std::string *error);

/** The "type" member of a parsed message ("" when absent). */
std::string messageType(const JsonValue &msg);

// --- config wire codec ---------------------------------------------

/**
 * @p config serialized for a lease. The config must already be resolved
 * (resolveExperimentConfig()): every field is spelled out explicitly so
 * the worker's own environment cannot skew the simulation.
 */
JsonValue experimentConfigToJson(const ExperimentConfig &config);

/**
 * Rebuild an ExperimentConfig from experimentConfigToJson() output.
 * Exact: experimentKey() of the round-tripped config equals the
 * original's (test_svc pins this).
 * @return false when @p v is malformed; @p out is then untouched.
 */
bool experimentConfigFromJson(const JsonValue &v, ExperimentConfig *out);

/** Inverse of mitigationName(); false when @p name is unknown. */
bool mitigationFromName(const std::string &name, MitigationType *out);

// --- message builders (all return compact dump()-ready objects) -----

JsonValue makeHello(unsigned jobs, const std::string &worker_name);
JsonValue makeHelloOk();
JsonValue makeLeaseRequest();
JsonValue makeLease(const std::string &key, const ExperimentConfig &config,
                    std::uint64_t deadline_ms);
JsonValue makeHeartbeat(const std::string &key);
JsonValue makeResult(const std::string &key, JsonValue payload);
JsonValue makeSolo(const std::string &app, std::uint64_t insts, double ipc);
JsonValue makeDone();
JsonValue makeError(const std::string &message);

} // namespace bh::svc
