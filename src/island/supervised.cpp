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
    // Replicas are bit-exact absent faults, so a disagreement means an
    // undetected upset slipped through a rollback: without a strict
    // majority there is no verified answer to deliver.
    const std::optional<IslandResult>* delivered = &results_.front();
    if (results_.size() > 1) {
        std::vector<std::optional<supervisor::Answer>> answers(results_.size());
        for (std::size_t i = 0; i < results_.size(); ++i)
            if (results_[i]) answers[i] = {results_[i]->best_fitness, results_[i]->best_candidate};
        const supervisor::Vote v = supervisor::nmr_vote(answers, cfg_.sink, 0);
        rep.voted = true;
        rep.vote_agree = v.agree;
        delivered = v.majority ? &results_[v.winner] : nullptr;
        if (!v.majority)
            rep.abort_reason = "no NMR majority (" + std::to_string(v.agree) + "/" +
                               std::to_string(results_.size()) + " replicas agree)";
    }
    if (delivered == nullptr || !*delivered) {
        rep.status = supervisor::Status::kAborted;
        emit(trace::TraceEvent(trace::kind::kSupAbort, 0, 0).add("reason", rep.abort_reason));
        return rep;
    }
    rep.status = supervisor::Status::kOk;
    rep.abort_reason.clear();
    rep.result = **delivered;
    rep.best_fitness = rep.result.best_fitness;
    rep.best_candidate = rep.result.best_candidate;
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
