// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_DEADLINE_H_
#define PME_COMMON_DEADLINE_H_

#include <atomic>
#include <chrono>
#include <memory>

#include "common/status.h"

namespace pme {

/// A monotonic-clock wall-time budget.
///
/// Deadlines are absolute points on std::chrono::steady_clock, so they
/// compose across call layers: `SolveDecomposed` derives per-component
/// deadlines from the request deadline, and every solver iteration
/// checks the same absolute instant. The default-constructed deadline is
/// infinite (never expires) — existing call sites pay nothing.
///
/// Value type, trivially copyable; a Deadline inside SolverOptions is
/// copied per component without shared state.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `seconds` from now (<= 0 means already expired).
  static Deadline AfterSeconds(double seconds);

  /// Expires `millis` milliseconds from now (<= 0 means already expired).
  static Deadline AfterMillis(double millis) {
    return AfterSeconds(millis * 1e-3);
  }

  /// Expires at the given absolute instant.
  static Deadline At(Clock::time_point when);

  /// The earlier of two deadlines (an infinite one never wins).
  static Deadline Earlier(const Deadline& a, const Deadline& b);

  bool is_infinite() const { return infinite_; }

  /// True once the clock has reached the deadline. Infinite deadlines
  /// never expire. Carries the `deadline_skip` failpoint: when armed, a
  /// finite deadline reports expired immediately, simulating a clock
  /// skip past the budget.
  bool Expired() const;

  /// Seconds until expiry: +infinity for infinite deadlines, clamped at
  /// zero once expired.
  double RemainingSeconds() const;

 private:
  Clock::time_point when_{};
  bool infinite_ = true;
};

/// Cooperative cancellation handle, checked by solver loops alongside
/// the deadline.
///
/// A default-constructed token is inert — it can never report
/// cancellation and costs one null check. Tokens with teeth come from a
/// CancellationSource; copies share the source's flag, so a service
/// layer can hand one token to every component solve of a request and
/// stop them all with a single Cancel().
class CancellationToken {
 public:
  /// Inert token: never cancelled.
  CancellationToken() = default;

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_acquire);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The writable end of a cancellation: owns the flag, mints tokens.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }

  /// Requests cancellation; every outstanding token observes it at its
  /// next check. Idempotent and thread-safe.
  void Cancel() { flag_->store(true, std::memory_order_release); }

  bool cancelled() const { return flag_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The per-iteration check used by every dual minimizer: cancellation
/// first (a cancelled request should not burn its remaining budget),
/// then the deadline. Returns kOk, kCancelled, or kDeadlineExceeded.
StatusCode CheckInterrupt(const Deadline& deadline,
                          const CancellationToken& cancel);

}  // namespace pme

#endif  // PME_COMMON_DEADLINE_H_
