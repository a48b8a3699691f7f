#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Segment: return "segment";
    case Layer::Run: return "run";
    case Layer::SetupFaults: return "core.setup.faults";
    case Layer::SetupAlgorithm: return "core.setup.algorithm";
    case Layer::SetupNetwork: return "core.setup.network";
    case Layer::TrafficTick: return "traffic.tick";
    case Layer::InjectTick: return "inject.tick";
    case Layer::InjectReconfigure: return "inject.reconfigure";
    case Layer::RouterStep: return "router.step";
    case Layer::StatsReduce: return "stats.reduce";
    case Layer::CampaignSetup: return "campaign.setup";
    case Layer::CampaignRunStreamed: return "campaign.run_streamed";
    case Layer::CampaignSink: return "campaign.sink";
    case Layer::Count: break;
  }
  return "?";
}

int Tracer::open(Layer layer) {
  const int index = static_cast<int>(spans_.size());
  Span s;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.layer = layer;
  spans_.push_back(s);
  stack_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(int index) {
  const std::int64_t t = now_ns();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Tracer::record(Layer layer, int parent, std::int64_t start_ns,
                    std::int64_t end_ns) {
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.run = run_;
  s.layer = layer;
  spans_.push_back(s);
}

std::array<std::int64_t, kLayerCount> Tracer::self_ns() const {
  std::array<std::int64_t, kLayerCount> self{};
  for (const Span& s : spans_) {
    const std::int64_t d = s.end_ns - s.start_ns;
    self[static_cast<std::size_t>(s.layer)] += d;
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(spans_[static_cast<std::size_t>(s.parent)].layer)] -= d;
    }
  }
  return self;
}

std::string Tracer::check() const {
  if (!stack_.empty()) return "span left open";
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) return std::string(layer_name(s.layer)) + " ends before it starts";
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string(layer_name(s.layer)) + " span outside its parent " +
             layer_name(p.layer);
    }
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (child_ns[i] > spans_[i].end_ns - spans_[i].start_ns) {
      return std::string(layer_name(spans_[i].layer)) +
             " children cover more than the span";
    }
  }
  return {};
}

std::vector<std::int64_t> Tracer::durations(Layer layer) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (s.layer == layer) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "layer,run,parent,start_ns,end_ns\n";
  for (const Span& s : spans_) {
    os << layer_name(s.layer) << ',' << s.run << ',' << s.parent << ','
       << s.start_ns - base << ',' << s.end_ns - base << '\n';
  }
}

}  // namespace perfbench
