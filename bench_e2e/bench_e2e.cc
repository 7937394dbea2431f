/**
 * @file
 * One end-to-end simulation per process, timed from outside the public
 * ss::Simulation API.
 *
 *   bench_e2e CONFIG.json [--setup-only]
 *   bench_e2e --calibrate THREADS
 *
 * Phases, each a span on this process's steady clock: load (parse the
 * config), build (construct the Simulation: everything before the first
 * event), run (Simulation::run: the event loop plus finalize), report
 * (RunResult::toJson/summary and serialization), teardown (destroy the
 * result and the Simulation). Per-layer counts are read from public
 * getters between report and teardown, outside every span. The process
 * runs exactly one simulation so its getrusage() peak RSS and CPU time
 * belong to that run. --setup-only stops after build and tears down.
 * --calibrate times a fixed reference kernel instead (see
 * referenceKernel()), by which run.py scales host times.
 *
 * Prints one JSON object on stdout; bench_e2e/run.py turns it into
 * metrics and checks it. Exit status 0 means the run finished, not that
 * it passed the checks.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "json/json.h"
#include "sim/builder.h"

namespace {

using Clock = std::chrono::steady_clock;

/** Records [start, end) spans relative to the process's first reading. */
class PhaseClock {
  public:
    /** Times @p fn as span @p name; returns its duration in seconds. */
    template <typename Fn>
    double
    span(const char* name, Fn&& fn)
    {
        Clock::time_point start = Clock::now();
        fn();
        Clock::time_point end = Clock::now();
        ss::json::Value entry = ss::json::Value::object();
        entry["name"] = name;
        entry["start_us"] = micros(start);
        entry["dur_us"] = micros(end) - micros(start);
        spans_.append(std::move(entry));
        double seconds = std::chrono::duration<double>(end - start).count();
        phases_[name] = seconds;
        return seconds;
    }

    ss::json::Value& phases() { return phases_; }
    ss::json::Value& spans() { return spans_; }

  private:
    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    ss::json::Value phases_ = ss::json::Value::object();
    ss::json::Value spans_ = ss::json::Value::array();
};

/** FNV-1a over @p text, as 16 hex digits. */
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

/** Simulated outputs only: everything RunResult::toJson() reports
 *  except host timings (engine), the build string (version) and energy,
 *  so the digest changes exactly when the modelled network does. */
std::string
simDigest(const ss::RunResult& result)
{
    ss::json::Value json = result.toJson();
    json.erase("engine");
    json.erase("version");
    json.erase("energy");
    return fnv1a(json.toCanonicalString());
}

bool
endsWith(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/** Sums the observability instruments of every router/interface by
 *  name suffix (present only when the config enabled observability). */
ss::json::Value
registryCounts(const ss::obs::MetricsRegistry& registry)
{
    std::uint64_t pipeline = 0;
    std::uint64_t vca = 0;
    std::uint64_t sa = 0;
    std::uint64_t stalls = 0;
    std::uint64_t hopSum = 0;
    std::uint64_t hopCount = 0;
    for (std::size_t i = 0; i < registry.size(); ++i) {
        const ss::obs::Metric& metric = registry.at(i);
        const std::string& name = metric.name();
        if (metric.kind() == ss::obs::MetricKind::kCounter) {
            std::uint64_t value =
                static_cast<const ss::obs::Counter&>(metric).value();
            if (endsWith(name, ".pipeline_evals")) {
                pipeline += value;
            } else if (endsWith(name, ".vca_grants")) {
                vca += value;
            } else if (endsWith(name, ".sa_grants")) {
                sa += value;
            } else if (endsWith(name, ".injection_stalls")) {
                stalls += value;
            }
        } else if (metric.kind() == ss::obs::MetricKind::kHistogram &&
                   endsWith(name, ".hop_latency")) {
            const auto& hist =
                static_cast<const ss::obs::Histogram&>(metric);
            hopSum += hist.sum();
            hopCount += hist.count();
        }
    }
    ss::json::Value out = ss::json::Value::object();
    out["pipeline_evals"] = pipeline;
    out["vca_grants"] = vca;
    out["sa_grants"] = sa;
    out["injection_stalls"] = stalls;
    out["hop_latency_sum"] = hopSum;
    out["hop_latency_count"] = hopCount;
    return out;
}

/** Per-layer counts read from public getters of a finished run. */
void
layerCounts(ss::Simulation& sim, const ss::RunResult& result,
            ss::json::Value* out)
{
    ss::json::Value& o = *out;
    ss::Simulator* simulator = sim.simulator();
    ss::Network* network = sim.network();

    std::uint64_t linkFlits = 0;
    for (const ss::Network::RouterLink& link : network->routerLinks()) {
        linkFlits += link.data->flitCount();
    }
    std::uint64_t injected = 0;
    std::uint64_t ejected = 0;
    for (std::uint32_t i = 0; i < network->numInterfaces(); ++i) {
        injected += network->interface(i)->flitsInjected();
        ejected += network->interface(i)->flitsEjected();
    }
    double utilSum = 0.0;
    double utilMax = 0.0;
    auto utilizations = network->channelUtilizations();
    for (const auto& [name, util] : utilizations) {
        utilSum += util;
        utilMax = std::max(utilMax, util);
    }

    o["saturated"] = result.saturated;
    o["end_tick"] = result.endTick;
    o["run_wall_s"] = simulator->runWallSeconds();
    o["events"] = simulator->eventsExecuted();
    o["peak_queue_depth"] = std::uint64_t{simulator->peakQueueDepth()};
    o["pooled_events_allocated"] =
        std::uint64_t{simulator->pooledEventsAllocated()};
    o["callback_events_allocated"] =
        std::uint64_t{simulator->callbackEventsAllocated()};
    o["partitions"] = std::uint64_t{
        simulator->isParallel() ? simulator->numWorkerPartitions() : 1};
    o["flits_injected"] = injected;
    o["flits_ejected"] = ejected;
    o["flit_hops"] = linkFlits + injected + ejected;
    o["messages_in_flight"] = std::uint64_t{network->messagesInFlight()};
    o["credits"] = network->totalCreditsSent();
    o["channel_util_mean"] =
        utilizations.empty()
            ? 0.0
            : utilSum / static_cast<double>(utilizations.size());
    o["channel_util_max"] = utilMax;

    o["sampled_messages"] = std::uint64_t{result.sampler.count()};
    if (result.sampler.count() > 0) {
        ss::Distribution total = result.sampler.totalLatencyDistribution();
        o["latency_p50"] = total.percentile(50);
        o["latency_p99"] = total.percentile(99);
        o["nonminimal_fraction"] = result.sampler.nonminimalFraction();
    }
    o["throughput"] = result.throughput();

    if (simulator->observabilityEnabled()) {
        o["obs"] = registryCounts(simulator->metrics());
    }
    if (result.energy.enabled) {
        ss::json::Value energy = ss::json::Value::object();
        energy["joules_per_bit"] = result.energy.joulesPerBit;
        energy["arbitrations"] = result.energy.routerArbitrations;
        o["energy"] = std::move(energy);
    }
    if (result.resilience.enabled) {
        const ss::fault::ResilienceReport& r = result.resilience;
        ss::json::Value fault = ss::json::Value::object();
        fault["injected"] = r.injected;
        fault["completed"] = r.completed;
        fault["recovered"] = r.recovered;
        fault["recovery_latency_mean"] = r.recoveryLatencyMean;
        fault["flits_outstanding"] = r.flitsInjected - r.flitsEjected;
        o["fault"] = std::move(fault);
    }
    o["digest"] = simDigest(result);
}

void
addUsage(ss::json::Value* out)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    (*out)["cpu_s"] = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    // Linux reports ru_maxrss in kilobytes.
    (*out)["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
}

/**
 * The host-speed reference: a fixed event loop on a binary heap whose
 * handlers update an 8 MiB table at pseudo-random slots, the same mix of
 * queue operations and scattered loads as the simulator's hot path. It
 * shares no code with the simulator, so a change to the simulator cannot
 * move it; its run time tracks how fast the host is at that moment.
 */
std::uint64_t
referenceKernel()
{
    std::vector<std::uint64_t> table(std::size_t{1} << 20);
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        queue;
    std::uint64_t z = 0x2545f4914f6cdd1dULL;
    auto next = [&z] {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        return z;
    };
    for (int i = 0; i < 4096; ++i) {
        queue.push(next() & 0xffff);
    }
    std::uint64_t sum = 0;
    for (int i = 0; i < 3000000; ++i) {
        std::uint64_t tick = queue.top();
        queue.pop();
        std::uint64_t r = next();
        std::uint64_t& slot = table[r & (table.size() - 1)];
        slot += tick;
        sum += slot;
        queue.push(tick + 1 + (r >> 54));
    }
    return sum;
}

/** Runs the reference kernel on @p threads threads at once and prints
 *  the wall time until the last one finishes. */
int
calibrate(unsigned threads)
{
    Clock::time_point start = Clock::now();
    std::vector<std::uint64_t> sums(threads);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&sums, t] { sums[t] = referenceKernel(); });
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    ss::json::Value out = ss::json::Value::object();
    out["calibration_s"] = seconds;
    // Printed so the kernel cannot be optimized away.
    out["checksum"] = sums[0];
    std::printf("%s\n", out.toString().c_str());
    return 0;
}

int
benchMain(const std::string& path, bool setupOnly)
{
    PhaseClock clock;
    ss::json::Value out = ss::json::Value::object();
    ss::json::Value config;
    std::unique_ptr<ss::Simulation> sim;

    clock.span("load", [&] { config = ss::json::parseFile(path); });
    clock.span("build",
               [&] { sim = std::make_unique<ss::Simulation>(config); });
    if (setupOnly) {
        clock.span("teardown", [&] { sim.reset(); });
    } else {
        std::unique_ptr<ss::RunResult> result;
        double runSeconds = clock.span("run", [&] {
            result = std::make_unique<ss::RunResult>(sim->run());
        });
        std::size_t reportBytes = 0;
        clock.span("report", [&] {
            reportBytes = result->toJson().toString(2).size() +
                          result->summary().size();
        });
        out["report_bytes"] = std::uint64_t{reportBytes};
        layerCounts(*sim, *result, &out);
        // Simulation::run minus the event loop: workload finalize
        // (sampler/shard merges), fault and power reports, obs finish.
        clock.phases()["finalize"] =
            runSeconds - sim->simulator()->runWallSeconds();
        clock.span("teardown", [&] {
            result.reset();
            sim.reset();
        });
    }
    addUsage(&out);
    out["phases"] = std::move(clock.phases());
    out["spans"] = std::move(clock.spans());
    std::printf("%s\n", out.toString().c_str());
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string path;
    bool setupOnly = false;
    bool usage = argc < 2;
    for (int i = 1; i < argc && !usage; ++i) {
        std::string arg = argv[i];
        if (arg == "--calibrate" && argc == 3) {
            int threads = std::atoi(argv[2]);
            usage = threads < 1 || threads > 64;
            if (!usage) {
                return calibrate(static_cast<unsigned>(threads));
            }
        } else if (arg == "--setup-only") {
            setupOnly = true;
        } else if (path.empty() && arg.rfind("--", 0) != 0) {
            path = arg;
        } else {
            usage = true;
        }
    }
    if (usage || path.empty()) {
        std::fprintf(stderr,
                     "usage: bench_e2e CONFIG.json [--setup-only]\n"
                     "       bench_e2e --calibrate THREADS\n");
        return 2;
    }
    try {
        return benchMain(path, setupOnly);
    } catch (const ss::FatalError& e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
