// A balance::LoadBalancer decorator that forwards every call to the wrapped
// balancer and times it, so the traced run can split the driver's wall time
// into balancer time and everything else without touching the program.
// Results are unchanged: every virtual, including name(), per_request(),
// bind_cluster(), dispatch(), on_server_idle() and counters(), forwards.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "balance/balancer.h"

namespace perfbench {

class TimedBalancer final : public anu::balance::LoadBalancer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit TimedBalancer(anu::balance::LoadBalancer& inner) : inner_(inner) {}

  /// Per-call durations of dispatch() and tune(), in nanoseconds.
  std::vector<std::uint32_t> dispatch_ns;
  std::vector<std::uint32_t> tune_ns;
  /// File sets moved by all tune() calls.
  std::uint64_t tune_moves = 0;
  /// Nanoseconds spent inside every forwarded call.
  mutable std::uint64_t total_ns = 0;

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  void register_file_sets(
      const std::vector<anu::workload::FileSet>& file_sets) override {
    Span span(total_ns);
    inner_.register_file_sets(file_sets);
  }
  [[nodiscard]] anu::ServerId server_for(anu::FileSetId id) const override {
    Span span(total_ns);
    return inner_.server_for(id);
  }
  void report(anu::ServerId server,
              const anu::balance::ServerReport& report) override {
    Span span(total_ns);
    inner_.report(server, report);
  }
  void set_oracle(const anu::balance::OracleView& oracle) override {
    Span span(total_ns);
    inner_.set_oracle(oracle);
  }
  anu::balance::RebalanceResult tune() override {
    Span span(total_ns, &tune_ns);
    auto result = inner_.tune();
    tune_moves += result.moved_count();
    return result;
  }
  anu::balance::RebalanceResult on_server_failed(anu::ServerId id) override {
    Span span(total_ns);
    return inner_.on_server_failed(id);
  }
  anu::balance::RebalanceResult on_server_recovered(
      anu::ServerId id) override {
    Span span(total_ns);
    return inner_.on_server_recovered(id);
  }
  anu::balance::RebalanceResult on_server_added(anu::ServerId id) override {
    Span span(total_ns);
    return inner_.on_server_added(id);
  }
  [[nodiscard]] std::size_t shared_state_bytes() const override {
    return inner_.shared_state_bytes();
  }
  [[nodiscard]] bool per_request() const override {
    return inner_.per_request();
  }
  void bind_cluster(const anu::balance::ClusterView* view) override {
    inner_.bind_cluster(view);
  }
  [[nodiscard]] anu::balance::DispatchDecision dispatch(
      anu::FileSetId id, double demand) override {
    Span span(total_ns, &dispatch_ns);
    return inner_.dispatch(id, demand);
  }
  void on_server_idle(anu::ServerId server) override {
    Span span(total_ns);
    inner_.on_server_idle(server);
  }
  [[nodiscard]] anu::balance::BalanceCounters counters() const override {
    return inner_.counters();
  }

 private:
  // Times one forwarded call into the running total and, for dispatch()
  // and tune(), the per-call samples.
  class Span {
   public:
    explicit Span(std::uint64_t& total,
                  std::vector<std::uint32_t>* samples = nullptr)
        : total_(total), samples_(samples), start_(Clock::now()) {}
    ~Span() {
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start_)
              .count());
      total_ += ns;
      if (samples_ != nullptr) {
        samples_->push_back(static_cast<std::uint32_t>(
            ns > UINT32_MAX ? UINT32_MAX : ns));
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    std::uint64_t& total_;
    std::vector<std::uint32_t>* samples_;
    Clock::time_point start_;
  };

  anu::balance::LoadBalancer& inner_;
};

}  // namespace perfbench
