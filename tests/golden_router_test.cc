/** @file Golden-output regression for the router microarchitectures.
 *
 *  Each case runs a small, multi-flit, near-saturation simulation and
 *  compares a digest of its RunResult against tests/golden/
 *  router_digests.json. The digest is FNV-1a of the canonical
 *  RunResult::toJson() minus host timings (engine), the build string
 *  (version) and energy — the same digest bench_e2e reports — so it moves
 *  exactly when the modelled network does. A refactor of the router or
 *  arbiter hot paths must leave every digest unchanged.
 *
 *  The matrix covers IQ torus × {flit_buffer, packet_buffer,
 *  winner_take_all} × every switch-allocation arbiter policy, non-default
 *  VC-allocation arbiters, IOQ HyperX with UGAL, OQ, and an IQ dragonfly
 *  with a router port stall. After an intentional model change, the
 *  failure messages print the new golden lines to paste into the file. */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "json/json.h"
#include "sim/builder.h"
#include "test_util.h"

namespace ss {
namespace {

std::string
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char out[17];
    std::snprintf(out, sizeof(out), "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

std::string
simDigest(const RunResult& result)
{
    json::Value json = result.toJson();
    json.erase("engine");
    json.erase("version");
    json.erase("energy");
    return fnv1a(json.toCanonicalString());
}

/** Multi-packet, multi-flit uniform-random blast near saturation. */
std::string
heavyBlast(double rate)
{
    return strf(R"({"applications": [{
        "type": "blast", "injection_rate": )", rate, R"(,
        "message_size": 8, "max_packet_size": 4,
        "num_samples": 60, "warmup_duration": 300,
        "traffic": {"type": "uniform_random"}}]})");
}

/** A 4x4 torus of IQ routers (2 terminals each) with small buffers, so
 *  WTA lock holders stall on credits mid-packet. */
std::string
iqTorus(const std::string& fc, const std::string& sa,
        const std::string& vca = "round_robin")
{
    return strf(
        R"({"topology": "torus", "widths": [4, 4], "concentration": 2,
            "num_vcs": 4, "clock_period": 1, "channel_latency": 3,
            "terminal_latency": 1,
            "router": {"architecture": "input_queued",
                       "input_buffer_size": 6, "crossbar_latency": 1,
                       "crossbar_scheduler": {
                           "flow_control": ")", fc, R"(",
                           "arbiter": {"type": ")", sa, R"("}},
                       "vc_allocator": {"arbiter": {"type": ")", vca,
        R"("}}},
            "routing": {"algorithm": "torus_dimension_order"}})");
}

struct GoldenCase {
    std::string name;
    std::string network;
    std::string workload;
    std::string fault;  ///< "fault" block JSON, or empty
};

void
PrintTo(const GoldenCase& c, std::ostream* os)
{
    *os << c.name;
}

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (const char* fc :
         {"flit_buffer", "packet_buffer", "winner_take_all"}) {
        for (const char* sa :
             {"round_robin", "age", "random", "lru", "fixed_priority"}) {
            cases.push_back({strf("iq_torus_", fc, "_sa_", sa),
                             iqTorus(fc, sa), heavyBlast(0.36), ""});
        }
    }
    cases.push_back({"iq_torus_winner_take_all_vca_age",
                     iqTorus("winner_take_all", "round_robin", "age"),
                     heavyBlast(0.36), ""});
    cases.push_back({"iq_torus_flit_buffer_vca_random",
                     iqTorus("flit_buffer", "age", "random"),
                     heavyBlast(0.36), ""});
    cases.push_back(
        {"ioq_hyperx_ugal",
         R"({"topology": "hyperx", "widths": [4, 4], "concentration": 2,
             "num_vcs": 4, "clock_period": 2, "channel_latency": 6,
             "router": {"architecture": "input_output_queued",
                        "input_buffer_size": 8, "output_buffer_size": 8,
                        "crossbar_latency": 1, "speedup": 2,
                        "congestion_sensor": {"type": "credit",
                                              "latency": 1,
                                              "granularity": "vc",
                                              "pools": "both"}},
             "routing": {"algorithm": "hyperx_ugal"}})",
         heavyBlast(0.6), ""});
    cases.push_back(
        {"oq_torus",
         R"({"topology": "torus", "widths": [4, 4], "concentration": 2,
             "num_vcs": 2, "clock_period": 1, "channel_latency": 3,
             "router": {"architecture": "output_queued",
                        "input_buffer_size": 8,
                        "output_buffer_size": 8},
             "routing": {"algorithm": "torus_dimension_order"}})",
         heavyBlast(0.3), ""});
    cases.push_back(
        {"iq_dragonfly_port_stall",
         R"({"topology": "dragonfly", "group_size": 3,
             "global_channels": 2, "concentration": 2, "num_vcs": 4,
             "clock_period": 1, "channel_latency": 2, "global_latency": 6,
             "router": {"architecture": "input_queued",
                        "input_buffer_size": 6,
                        "crossbar_scheduler": {
                            "flow_control": "winner_take_all"}},
             "routing": {"algorithm": "dragonfly_minimal"}})",
         heavyBlast(0.22),
         R"({"enabled": true, "events": [
               {"kind": "router_port_stall", "router": 1, "port": 2,
                "begin": 400, "duration": 600}]})"});
    return cases;
}

const json::Value&
loadGoldens()
{
    static const json::Value goldens =
        json::parseFile(SS_TEST_SOURCE_DIR "/golden/router_digests.json");
    return goldens;
}

class GoldenRouterTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRouterTest, DigestMatchesGolden)
{
    const GoldenCase& c = GetParam();
    json::Value config = test::makeConfig(c.network, c.workload, 3);
    if (!c.fault.empty()) {
        config["fault"] = json::parse(c.fault);
    }
    std::string digest = simDigest(runSimulation(config));
    const json::Value& goldens = loadGoldens();
    ASSERT_TRUE(goldens.has(c.name))
        << "no golden; add:  \"" << c.name << "\": \"" << digest << "\"";
    EXPECT_EQ(goldens.at(c.name).asString(), digest)
        << "model changed; if intended:  \"" << c.name << "\": \""
        << digest << "\"";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenRouterTest, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
        return info.param.name;
    });

}  // namespace
}  // namespace ss
