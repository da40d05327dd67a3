#include "transfer/proxy_flight.h"

#include <chrono>

namespace tps {

namespace {
// Waiters poll their own cancellation at this cadence while the leader
// computes; 1ms keeps waiter deadline latency tight without burning the
// core the leader needs.
constexpr std::chrono::milliseconds kWaiterPoll{1};

// Adapts a one-key compute closure to the batch signature.
BatchCompute OneKey(const std::function<StatusOr<double>()>& compute) {
  return [&compute](const std::vector<size_t>&)
             -> StatusOr<std::vector<double>> {
    TPS_ASSIGN_OR_RETURN(double score, compute());
    return std::vector<double>{score};
  };
}
}  // namespace

ProxyFlightGroup::ProxyFlightGroup(MetricsRegistry* metrics)
    : metrics_(metrics != nullptr ? metrics : MetricsRegistry::Default()),
      leader_counter_(metrics_->counter("proxy_flight.leaders")),
      waiter_counter_(metrics_->counter("proxy_flight.waiters")),
      compute_counter_(metrics_->counter("proxy_flight.computes")),
      handoff_counter_(metrics_->counter("proxy_flight.handoffs")) {}

size_t ProxyFlightGroup::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flights_.size();
}

void ProxyFlightGroup::Depart(const ProxyCacheKey& key,
                              const std::shared_ptr<Flight>& flight) {
  flight->members -= 1;
  if (flight->members == 0 && !flight->done) {
    // Last member left an unfinished flight (everyone cancelled); retire
    // it so the next arrival starts fresh instead of waiting forever.
    auto it = flights_.find(key);
    if (it != flights_.end() && it->second == flight) flights_.erase(it);
  }
}

StatusOr<std::vector<double>> ProxyFlightGroup::ComputeSharedBatch(
    const std::vector<ProxyCacheKey>& keys,
    const std::function<Status()>& poll_cancel,
    const std::function<std::optional<double>(size_t)>& peek,
    const BatchCompute& compute) {
  // One lock pass leads or joins the flight of every key. A key repeated
  // within the batch joins the membership its first occurrence took.
  std::vector<Membership> held;
  std::vector<size_t> owner(keys.size());
  {
    std::unordered_map<const Flight*, size_t> held_index;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < keys.size(); ++i) {
      auto it = flights_.find(keys[i]);
      if (it == flights_.end()) {
        auto flight = std::make_shared<Flight>();
        flight->leader_active = true;
        flight->members = 1;
        flights_.emplace(keys[i], flight);
        leaders_.fetch_add(1, std::memory_order_relaxed);
        leader_counter_.Increment();
        held_index.emplace(flight.get(), held.size());
        owner[i] = held.size();
        held.push_back(Membership{std::move(flight), i, true, 0.0});
        continue;
      }
      waiters_.fetch_add(1, std::memory_order_relaxed);
      waiter_counter_.Increment();
      const auto [slot, joined] =
          held_index.emplace(it->second.get(), held.size());
      owner[i] = slot->second;
      if (joined) {
        it->second->members += 1;
        held.push_back(Membership{it->second, i, false, 0.0});
      }
    }
  }

  auto cancelled = [](const Membership& member) {
    return !member.outcome.ok() &&
           member.outcome.status().IsDeadlineExceeded();
  };
  // Leaves every flight from membership `from` on that this caller still
  // waits on; used when its own request is cancelled.
  auto depart_from = [&](size_t from) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t j = from; j < held.size(); ++j) {
      if (!held[j].leading) Depart(keys[held[j].position], held[j].flight);
    }
  };

  // Lead first: every flight this caller leads is published before it
  // waits on anyone else's, so overlapping batches cannot deadlock.
  std::vector<size_t> led;
  for (size_t j = 0; j < held.size(); ++j) {
    if (held[j].leading) led.push_back(j);
  }
  if (!led.empty()) {
    Lead(keys, led, held, peek, compute);
    for (size_t j : led) {
      if (cancelled(held[j])) {
        depart_from(0);
        return held[j].outcome.status();
      }
    }
  }

  // Waiter path: wait for each joined flight to finish or its leader to
  // abdicate, polling our own cancellation in between.
  for (size_t j = 0; j < held.size(); ++j) {
    Membership& member = held[j];
    if (member.leading) continue;
    Flight& flight = *member.flight;
    std::unique_lock<std::mutex> lock(mu_);
    while (!flight.done && flight.leader_active) {
      flight.cv.wait_for(lock, kWaiterPoll);
      if (flight.done || !flight.leader_active) break;
      if (poll_cancel) {
        Status status = poll_cancel();
        if (!status.ok()) {
          lock.unlock();
          depart_from(j);
          return status;
        }
      }
    }
    if (flight.done) {
      flight.members -= 1;
      member.outcome = flight.result;
      continue;
    }
    // The leader abdicated and we won the promotion race (the first waiter
    // through the lock flips leader_active back on; the rest keep waiting
    // on the same flight). Compute this key alone, under our own budget.
    flight.leader_active = true;
    member.leading = true;
    handoffs_.fetch_add(1, std::memory_order_relaxed);
    handoff_counter_.Increment();
    leaders_.fetch_add(1, std::memory_order_relaxed);
    leader_counter_.Increment();
    lock.unlock();
    Lead(keys, {j}, held, peek, compute);
    if (cancelled(member)) {
      depart_from(j + 1);
      return member.outcome.status();
    }
  }

  std::vector<double> scores(keys.size(), 0.0);
  for (size_t i = 0; i < keys.size(); ++i) {
    const StatusOr<double>& outcome = held[owner[i]].outcome;
    if (!outcome.ok()) return outcome.status();
    scores[i] = *outcome;
  }
  return scores;
}

void ProxyFlightGroup::Lead(
    const std::vector<ProxyCacheKey>& keys, const std::vector<size_t>& led,
    std::vector<Membership>& held,
    const std::function<std::optional<double>(size_t)>& peek,
    const BatchCompute& compute) {
  // Peek + compute run with no lock held; the flight map stays responsive
  // for other keys while this caller works.
  std::vector<size_t> pending;
  std::vector<size_t> positions;
  for (size_t j : led) {
    if (peek) {
      if (std::optional<double> cached = peek(held[j].position);
          cached.has_value()) {
        held[j].outcome = *cached;
        continue;
      }
    }
    pending.push_back(j);
    positions.push_back(held[j].position);
  }
  if (!positions.empty()) {
    StatusOr<std::vector<double>> computed = compute(positions);
    if (!computed.ok() && !computed.status().IsDeadlineExceeded() &&
        positions.size() > 1) {
      // A genuine error belongs to one key: recompute one key at a time
      // so every flight publishes its own key's outcome.
      for (size_t q = 0; q < pending.size(); ++q) {
        StatusOr<std::vector<double>> one = compute({positions[q]});
        held[pending[q]].outcome =
            one.ok() ? StatusOr<double>((*one)[0])
                     : StatusOr<double>(one.status());
      }
    } else {
      for (size_t q = 0; q < pending.size(); ++q) {
        held[pending[q]].outcome =
            computed.ok() ? StatusOr<double>((*computed)[q])
                          : StatusOr<double>(computed.status());
      }
    }
    for (size_t j : pending) {
      if (held[j].outcome.ok()) {
        computes_.fetch_add(1, std::memory_order_relaxed);
        compute_counter_.Increment();
      }
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  for (size_t j : led) {
    Membership& member = held[j];
    Flight& flight = *member.flight;
    flight.members -= 1;
    if (!member.outcome.ok() &&
        member.outcome.status().IsDeadlineExceeded() && flight.members > 0) {
      // This caller's own deadline expired but live waiters remain:
      // abdicate instead of failing the flight. One waiter promotes
      // itself to leader and runs ITS OWN compute closure.
      flight.leader_active = false;
      flight.cv.notify_all();
      continue;
    }
    // Publish: success, genuine (deterministic) error, or a cancelled
    // leader with nobody left to hand off to. Retire the flight from the
    // map so post-flight arrivals go to the cache / a fresh flight;
    // members still holding the shared_ptr read `result` off it.
    flight.done = true;
    flight.result = member.outcome;
    auto it = flights_.find(keys[member.position]);
    if (it != flights_.end() && it->second == member.flight) {
      flights_.erase(it);
    }
    flight.cv.notify_all();
  }
}

StatusOr<std::vector<double>> ProxyFlightGroup::GetOrComputeBatch(
    ProxyScoreCache* cache, const std::vector<ProxyCacheKey>& keys,
    const std::function<Status()>& poll_cancel,
    const BatchCompute& compute) {
  std::vector<double> scores(keys.size(), 0.0);
  std::vector<size_t> misses;
  std::vector<ProxyCacheKey> miss_keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (cache != nullptr) {
      if (std::optional<double> cached = cache->Lookup(keys[i]);
          cached.has_value()) {
        scores[i] = *cached;
        continue;
      }
    }
    misses.push_back(i);
    miss_keys.push_back(keys[i]);
  }
  if (misses.empty()) return scores;
  if (join_hook_) join_hook_();

  std::function<std::optional<double>(size_t)> peek;
  if (cache != nullptr) {
    peek = [cache, &miss_keys](size_t p) { return cache->Peek(miss_keys[p]); };
  }
  // The leader inserts into the cache BEFORE the flight is retired, so a
  // request arriving after the flight hits the cache (or, if it missed the
  // pre-check just before, the leader's peek): compute runs exactly once
  // per key no matter how arrivals interleave.
  auto compute_and_insert = [&](const std::vector<size_t>& positions)
      -> StatusOr<std::vector<double>> {
    std::vector<size_t> original;
    original.reserve(positions.size());
    for (size_t p : positions) original.push_back(misses[p]);
    TPS_ASSIGN_OR_RETURN(std::vector<double> computed, compute(original));
    if (cache != nullptr) {
      for (size_t q = 0; q < positions.size(); ++q) {
        cache->Insert(miss_keys[positions[q]], computed[q]);
      }
    }
    return computed;
  };
  TPS_ASSIGN_OR_RETURN(
      std::vector<double> computed,
      ComputeSharedBatch(miss_keys, poll_cancel, peek, compute_and_insert));
  for (size_t j = 0; j < misses.size(); ++j) scores[misses[j]] = computed[j];
  return scores;
}

StatusOr<double> ProxyFlightGroup::GetOrCompute(
    ProxyScoreCache* cache, const ProxyCacheKey& key,
    const std::function<Status()>& poll_cancel,
    const std::function<StatusOr<double>()>& compute) {
  TPS_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      GetOrComputeBatch(cache, {key}, poll_cancel, OneKey(compute)));
  return scores[0];
}

StatusOr<double> ProxyFlightGroup::ComputeShared(
    const ProxyCacheKey& key, const std::function<Status()>& poll_cancel,
    const std::function<std::optional<double>()>& lookup,
    const std::function<StatusOr<double>()>& compute) {
  std::function<std::optional<double>(size_t)> peek;
  if (lookup) peek = [&lookup](size_t) { return lookup(); };
  TPS_ASSIGN_OR_RETURN(
      std::vector<double> scores,
      ComputeSharedBatch({key}, poll_cancel, peek, OneKey(compute)));
  return scores[0];
}

}  // namespace tps
