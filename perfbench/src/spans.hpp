#pragma once
// In-memory span recorder for the benchmark's traced pass.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public API; nothing inside the library is instrumented.  Each
// span names a layer, its [start, end) on the steady clock, the span that
// caused it (its parent) and the simulation run it belongs to.  Spans stay
// in memory until the pass ends and are written out afterwards, so file
// I/O never lands inside a timed interval.
//
// Self time of a span is its duration minus the durations of its children.
// Segment and Run spans are bookkeeping roots: their self time is the
// benchmark's own work between layer calls, reported as "unattributed".

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

enum class Layer : std::uint8_t {
  Segment,  ///< root of one traced segment (unattributed self time)
  Run,      ///< one simulation run (unattributed self time)
  SetupFaults,
  SetupAlgorithm,
  SetupNetwork,
  TrafficTick,
  InjectTick,
  InjectReconfigure,
  RouterStep,
  StatsReduce,
  CampaignSetup,
  CampaignRunStreamed,
  CampaignSink,
  Count
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

const char* layer_name(Layer layer);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint32_t run = 0;     ///< spans of one simulation run share this id
  Layer layer = Layer::Segment;
};

class Tracer {
 public:
  /// Opens a span under the innermost open span.  Single-threaded.
  int open(Layer layer);
  void close(int index);

  /// Closes the span when it leaves scope, also on exception unwind.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer) : tracer_(tracer), index_(tracer.open(layer)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int index() const noexcept { return index_; }

   private:
    Tracer& tracer_;
    int index_;
  };
  [[nodiscard]] Scope scope(Layer layer) { return Scope(*this, layer); }

  /// Appends an already-timed span (hooks that ran on other threads).
  void record(Layer layer, int parent, std::int64_t start_ns, std::int64_t end_ns);

  /// Starts a new run id; later spans carry it.
  void next_run() noexcept { ++run_; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per layer in ns, summed over every span.
  [[nodiscard]] std::array<std::int64_t, kLayerCount> self_ns() const;

  /// Structural check: every child lies inside its parent and no span's
  /// children cover more than its duration (self time >= 0).  Returns an
  /// empty string when sound, else the first violation.
  [[nodiscard]] std::string check() const;

  /// Durations of every span of `layer`, in ns.
  [[nodiscard]] std::vector<std::int64_t> durations(Layer layer) const;

  /// One line per span: layer,run,parent,start_ns,end_ns (start relative to
  /// the first span).
  void write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t run_ = 0;
};

}  // namespace perfbench
