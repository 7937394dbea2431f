/** @file Router microarchitecture behavior tests: latency accounting,
 *  credit loops, buffer limits, OQ/IQ/IOQ specifics. */
#include <gtest/gtest.h>

#include <algorithm>

#include "json/settings.h"
#include "router/input_queued_router.h"
#include "sim/builder.h"
#include "test_util.h"

namespace ss {
namespace {

/** A two-router ring (widths [2]) isolates one hop of everything. */
std::string
ringNetwork(const std::string& router_json, unsigned channel_latency = 10)
{
    return strf(
        R"({"topology": "torus", "widths": [2], "concentration": 1,
            "num_vcs": 2, "clock_period": 1, "channel_latency": )",
        channel_latency, R"(, "terminal_latency": 1,
            "router": )", router_json, R"(,
            "routing": {"algorithm": "torus_dimension_order"}})");
}

/** One 1-flit message between neighbors; returns its network latency. */
std::uint64_t
oneHopLatency(const std::string& router_json)
{
    json::Value config = test::makeConfig(
        ringNetwork(router_json),
        R"({"applications": [{
            "type": "pulse", "injection_rate": 1.0, "num_messages": 1,
            "message_size": 1,
            "traffic": {"type": "neighbor"}}]})");
    RunResult result = runSimulation(config);
    EXPECT_EQ(result.sampler.count(), 2u);
    return result.sampler.samples()[0].networkLatency();
}

TEST(IqRouter, UnloadedLatencyAccountsEveryStage)
{
    // Path: iface -(1)- router -xbar(2)- channel(10) - router -xbar(2)-
    // iface(1). Plus one pipeline cycle at each router.
    std::uint64_t latency = oneHopLatency(
        R"({"architecture": "input_queued", "input_buffer_size": 8,
            "crossbar_latency": 2})");
    // Lower bound: channel latencies + crossbar latencies.
    EXPECT_GE(latency, 1u + 2u + 10u + 2u + 1u);
    EXPECT_LE(latency, 22u);  // and no mysterious stalls
}

TEST(IqRouter, CrossbarLatencySettingShiftsLatency)
{
    std::uint64_t fast = oneHopLatency(
        R"({"architecture": "input_queued", "crossbar_latency": 1})");
    std::uint64_t slow = oneHopLatency(
        R"({"architecture": "input_queued", "crossbar_latency": 7})");
    EXPECT_EQ(slow - fast, 2u * 6u);  // two routers on the path
}

TEST(OqRouter, CoreLatencySettingShiftsLatency)
{
    std::uint64_t fast = oneHopLatency(
        R"({"architecture": "output_queued", "core_latency": 1})");
    std::uint64_t slow = oneHopLatency(
        R"({"architecture": "output_queued", "core_latency": 9})");
    EXPECT_EQ(slow - fast, 2u * 8u);
}

TEST(IoqRouter, DeliversThroughOutputQueues)
{
    std::uint64_t latency = oneHopLatency(
        R"({"architecture": "input_output_queued",
            "input_buffer_size": 8, "output_buffer_size": 4,
            "crossbar_latency": 1})");
    EXPECT_GE(latency, 14u);
    EXPECT_LE(latency, 26u);
}

TEST(IoqRouter, RequiresFiniteOutputBuffers)
{
    EXPECT_THROW(
        runSimulation(test::makeConfig(ringNetwork(
            R"({"architecture": "input_output_queued",
                "output_buffer_size": 0})"))),
        FatalError);
}

TEST(Router, SpeedupMustDivideChannelPeriod)
{
    EXPECT_THROW(
        runSimulation(test::makeConfig(strf(
            R"({"topology": "torus", "widths": [2], "num_vcs": 2,
                "clock_period": 3, "channel_latency": 5,
                "router": {"architecture": "input_queued",
                           "speedup": 2},
                "routing": {"algorithm": "torus_dimension_order"}})"))),
        FatalError);
}

TEST(Router, FrequencySpeedupDividesCoreClock)
{
    // A 2x frequency speedup halves the router core period relative to
    // the channel clock (paper §III-B / Table I), and the simulation
    // still runs to completion.
    json::Value config = test::makeConfig(
        R"({"topology": "hyperx", "widths": [4],
            "concentration": 1, "num_vcs": 2,
            "clock_period": 2, "channel_latency": 8,
            "router": {"architecture": "input_output_queued",
                       "input_buffer_size": 16,
                       "output_buffer_size": 16,
                       "crossbar_latency": 1,
                       "speedup": 2},
            "routing": {"algorithm": "hyperx_dimension_order"}})",
        test::blastWorkload(0.5, 1, 100), 1, 1000000);
    Simulation simulation(config);
    EXPECT_EQ(simulation.network()->router(0)->coreClock().period(), 1u);
    EXPECT_EQ(simulation.network()->router(0)->channelClock().period(),
              2u);
    RunResult result = simulation.run();
    EXPECT_FALSE(result.saturated);
    EXPECT_EQ(result.sampler.count(), 400u);
}

TEST(Router, CreditLoopSustainsFullBandwidth)
{
    // Neighbor traffic at rate 1.0 on a 2-ring must be sustainable when
    // buffers cover the round trip: accepted ~= offered.
    json::Value config = test::makeConfig(
        ringNetwork(R"({"architecture": "input_queued",
                        "input_buffer_size": 64,
                        "crossbar_latency": 1})",
                    4),
        R"({"applications": [{
            "type": "blast", "injection_rate": 0.95, "message_size": 1,
            "sample_duration": 4000, "warmup_duration": 1000,
            "traffic": {"type": "neighbor"}}]})",
        1, 500000);
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    EXPECT_GT(result.throughput(), 0.9);
}

TEST(Router, SmallBuffersThrottleThroughput)
{
    // With a 4-flit buffer against a 2*(10+1) round trip, the credit
    // loop caps the link utilization well below 1.
    json::Value config = test::makeConfig(
        ringNetwork(R"({"architecture": "input_queued",
                        "input_buffer_size": 4,
                        "crossbar_latency": 1})",
                    10),
        R"({"applications": [{
            "type": "blast", "injection_rate": 0.9, "message_size": 1,
            "sample_duration": 4000, "warmup_duration": 500,
            "traffic": {"type": "neighbor"}}]})",
        1, 500000);
    RunResult result = runSimulation(config);
    // 4 credits per ~22-tick round trip ~= 0.18 flits/cycle ceiling
    // on the router-router hop.
    EXPECT_LT(result.throughput(), 0.5);
}

TEST(Router, MultiPacketMessagesReassemble)
{
    json::Value config = test::makeConfig(
        ringNetwork(R"({"architecture": "input_queued",
                        "input_buffer_size": 8})"),
        R"({"applications": [{
            "type": "blast", "injection_rate": 0.2, "message_size": 10,
            "max_packet_size": 4, "num_samples": 20,
            "warmup_duration": 200,
            "traffic": {"type": "neighbor"}}]})");
    RunResult result = runSimulation(config);
    EXPECT_FALSE(result.saturated);
    EXPECT_EQ(result.sampler.count(), 40u);
    for (const auto& s : result.sampler.samples()) {
        EXPECT_EQ(s.flits, 10u);
        EXPECT_EQ(s.packets, 3u);
    }
}

/** Once per tick, after every router's pipeline evaluation, compares
 *  each IQ router's incrementally maintained allocation state with a
 *  full recomputation from its input VCs. A background event, so it
 *  never extends the run. */
class AllocationStateProbe : public Event {
  public:
    explicit AllocationStateProbe(Simulation* simulation)
        : simulation_(simulation)
    {}

    void
    process() override
    {
        Network* network = simulation_->network();
        for (std::uint32_t r = 0; r < network->numRouters(); ++r) {
            const auto* router =
                dynamic_cast<const InputQueuedRouter*>(network->router(r));
            ASSERT_NE(router, nullptr);
            const InputQueuedRouter::AllocationState& state =
                router->allocationState();
            if (!(state == router->recomputeAllocationState())) {
                ++mismatches;
            }
            maxWaiting = std::max(maxWaiting, state.waiting.count());
            maxActive = std::max(maxActive, state.active.count());
        }
        ++checks;
        Simulator* simulator = simulation_->simulator();
        simulator->schedule(
            this, Time(simulator->now().tick + 1, eps::kControl), true);
    }

    std::uint64_t checks = 0;
    std::uint64_t mismatches = 0;
    std::size_t maxWaiting = 0;
    std::size_t maxActive = 0;

  private:
    Simulation* simulation_;
};

class AllocationStateTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AllocationStateTest, IncrementalStateMatchesRecomputation)
{
    // High contention: multi-packet messages near saturation through
    // small buffers, so WTA lock holders stall and PB waits for space.
    json::Value config = test::makeConfig(
        strf(R"({"topology": "torus", "widths": [4, 4],
                 "concentration": 2, "num_vcs": 4, "clock_period": 1,
                 "channel_latency": 3,
                 "router": {"architecture": "input_queued",
                            "input_buffer_size": 6,
                            "crossbar_scheduler": {
                                "flow_control": ")",
             GetParam(), R"("}},
                 "routing": {"algorithm": "torus_dimension_order"}})"),
        R"({"applications": [{
            "type": "blast", "injection_rate": 0.36, "message_size": 8,
            "max_packet_size": 4, "num_samples": 30,
            "warmup_duration": 300,
            "traffic": {"type": "uniform_random"}}]})");
    Simulation simulation(config);
    AllocationStateProbe probe(&simulation);
    simulation.simulator()->schedule(&probe, Time(0, eps::kControl), true);
    RunResult result = simulation.run();
    EXPECT_FALSE(result.saturated);
    EXPECT_GT(probe.checks, 1000u);
    EXPECT_EQ(probe.mismatches, 0u);
    // The sets were exercised, not trivially empty.
    EXPECT_GE(probe.maxWaiting, 4u);
    EXPECT_GE(probe.maxActive, 4u);
}

INSTANTIATE_TEST_SUITE_P(FlowControls, AllocationStateTest,
                         ::testing::Values("winner_take_all",
                                           "packet_buffer"));

TEST(Router, UnknownArchitectureIsFatal)
{
    EXPECT_THROW(runSimulation(test::makeConfig(ringNetwork(
                     R"({"architecture": "quantum"})"))),
                 FatalError);
}

}  // namespace
}  // namespace ss
