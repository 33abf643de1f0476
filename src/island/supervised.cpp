#include "island/supervised.hpp"

#include <stdexcept>
#include <utility>

namespace gaip::island {

SupervisedIslandSystem::SupervisedIslandSystem(SupervisedIslandConfig cfg)
    : cfg_(std::move(cfg)) {
    cfg_.islands.sink = cfg_.sink;
    IslandSystem(cfg_.islands, cfg_, 0);  // its structural and substrate checks
}

void SupervisedIslandSystem::emit(trace::TraceEvent e) const {
    if (cfg_.sink != nullptr) cfg_.sink->on_event(e);
}

void SupervisedIslandSystem::step() {
    std::optional<IslandResult> result;
    try {
        if (!replica_) {
            replica_.emplace(cfg_.islands, cfg_, static_cast<unsigned>(results_.size()));
            replica_->start();
        }
        replica_->step();
        if (!replica_->done()) return;
        result = replica_->finish();
    } catch (const std::runtime_error& e) {
        if (rep_.abort_reason.empty()) rep_.abort_reason = e.what();
    }
    const RollbackTally& t = replica_->rollback_tally();
    rep_.checkpoints += t.checkpoints;
    rep_.watchdog_trips += t.watchdog_trips;
    rep_.rollbacks += t.rollbacks;
    replica_.reset();
    results_.push_back(std::move(result));
}

SupervisedIslandReport SupervisedIslandSystem::finish() const {
    SupervisedIslandReport rep = rep_;
    // Majority vote on the delivered (best fitness, best candidate) pair
    // among the replicas that finished; plurality with lowest-replica tie
    // break (replicas are bit-exact absent faults, so disagreement means
    // an undetected upset slipped through a ladder).
    const auto same = [](const IslandResult& a, const IslandResult& b) {
        return a.best_fitness == b.best_fitness && a.best_candidate == b.best_candidate;
    };
    const IslandResult* winner = nullptr;
    unsigned winner_votes = 0;
    for (const std::optional<IslandResult>& a : results_) {
        if (!a) continue;
        unsigned votes = 0;
        for (const std::optional<IslandResult>& b : results_)
            if (b && same(*a, *b)) ++votes;
        if (votes > winner_votes) {
            winner = &*a;
            winner_votes = votes;
        }
    }
    if (winner == nullptr) {
        rep.status = supervisor::Status::kAborted;
        emit(trace::TraceEvent(trace::kind::kSupAbort, 0, 0).add("reason", rep.abort_reason));
        return rep;
    }
    rep.status = supervisor::Status::kOk;
    rep.abort_reason.clear();
    rep.result = *winner;
    rep.best_fitness = rep.result.best_fitness;
    rep.best_candidate = rep.result.best_candidate;
    if (results_.size() > 1) {
        rep.voted = true;
        rep.vote_agree = winner_votes;
        emit(trace::TraceEvent(trace::kind::kSupVote, 0, 0)
                 .add("replicas", std::uint64_t{results_.size()})
                 .add("agree", std::uint64_t{winner_votes})
                 .add("best_fit", std::uint64_t{rep.best_fitness}));
    }
    emit(trace::TraceEvent(trace::kind::kSupResult, 0, 0)
             .add("status", std::string(supervisor::status_name(rep.status)))
             .add("best_fit", std::uint64_t{rep.best_fitness})
             .add("rollbacks", std::uint64_t{rep.rollbacks}));
    return rep;
}

SupervisedIslandReport SupervisedIslandSystem::run() {
    while (!done()) step();
    return finish();
}

}  // namespace gaip::island
