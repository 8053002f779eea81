#pragma once
// In-memory span recorder for the end-to-end benchmark.
//
// Spans are opened around the benchmark's own calls into each library
// module (nothing inside src/ is instrumented).  A span records its name,
// start and end (seconds since the recorder's epoch), the index of the span
// that was open when it started (its parent, -1 for a root) and the id of
// the operation it belongs to.  Spans stay in memory and are written out
// once, when the run ends.  A disabled recorder still returns scopes, but
// they record nothing and read no clock.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  using clock = std::chrono::steady_clock;

  struct Span {
    const char* name = "";
    long op = -1;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  /// RAII span: closes on destruction (or at an explicit close()).
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }
    void close() {
      if (index_ >= 0) tracer_->close(index_);
      index_ = -1;
    }

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Seconds since the recorder was created (always read, traced or not:
  /// the benchmark's own phase timings use the same clock).
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(clock::now() - epoch_).count();
  }

  /// Turn recording on or off for the spans opened from now on.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Operation id stamped on spans opened from now on.
  void set_op(long op) { op_ = op; }

  /// Open a span; `name` must be a string literal (stored by pointer).
  [[nodiscard]] Scope span(const char* name) {
    if (!enabled_) return Scope(this, -1);
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, op_, parent, now(), 0.0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return Scope(this, open_.back());
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end = now();
    // Scopes nest lexically, so the closing span is the innermost open one.
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  clock::time_point epoch_ = clock::now();
  bool enabled_ = false;
  long op_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace e2e
