// BatchGateRunner: the gate-lane harness. Up to 512 GA runs execute as the
// lanes of ONE CompiledNetlist lane-block simulation of the complete
// gate-level GA module (GaCoreNetlist + RngNetlist; 64 lanes per word).
// Table VII-IX sweeps, gaipd gate blocks, gate-lane islands, the mission
// supervisor, gaip-trace and the SEU fault campaign all drive it.
//
// Each lane has its own GaParameters and fitness function and runs the
// system flow of the RT-level GaSystem: the Sec. III-B.6 init handshake
// (snooped by the RNG module for the seed), the start_GA pulse, the FEM
// handshake against a software FEM (fitness_u16, the block-ROM values) and
// a 256x32 write-first GA memory. The FEM answers in the same cycle, as the
// 200 MHz FEM does inside one 50 MHz core cycle, so lane results — best
// fitness/candidate, evaluation, generation AND GA-cycle counts — equal the
// RT-level GaSystem's (tests/gates/test_gate_batch_runner.cpp).
//
// A block can take in work continuously: load_lane() resets one lane to a
// new job while its siblings keep stepping, free_lane() retires a lane. A
// reloaded lane counts its trace `cycle`/`t` from its own reset, so its run
// is indistinguishable from a fresh one-lane runner (gaipd's lane refill).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "fitness/functions.hpp"
#include "gates/compiled.hpp"
#include "gates/ga_core_gates.hpp"
#include "gates/rng_gates.hpp"
#include "trace/event.hpp"

namespace gaip::trace {
class VcdWriter;
}

namespace gaip::gates {

struct BatchLaneResult {
    bool finished = false;
    std::uint16_t best_fitness = 0;
    std::uint16_t best_candidate = 0;
    std::uint32_t generations = 0;
    std::uint64_t evaluations = 0;
    /// GA-clock cycles from the cycle start_GA rises to the edge GA_done
    /// rises at (the GaSystem::ga_cycles() convention).
    std::uint64_t ga_cycles = 0;
};

class BatchGateRunner {
public:
    static constexpr unsigned kWordBits = CompiledNetlist::kWordBits;
    /// Hard lane ceiling: the widest supported block (8 words = 512 lanes).
    static constexpr unsigned kMaxLanes = CompiledNetlist::kMaxWords * kWordBits;

    /// One lane per entry of `lane_params`. Every lane runs `fn` as its
    /// (internal, slot-0) fitness function (set_lane_fitness overrides it
    /// per lane). `words` selects the lane-block width (1/2/4/8 u64 words);
    /// 0 picks the smallest block that fits the requested lane count.
    /// `backend` selects the evaluation engine for both compiled netlists
    /// (interpreted kernels vs host-compiled native code; kAuto defers to
    /// GAIP_JIT and defaults to the interpreter).
    BatchGateRunner(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params,
                    unsigned words = 0, Backend backend = Backend::kAuto);

    /// Rebind the runner to a new job set without recompiling the two
    /// netlists (construction's dominant cost; gaipd and fault-campaign
    /// workers reuse one runner). The lane count must fit the block;
    /// presets, sinks and lane state return to the post-construction state.
    void reconfigure(fitness::FitnessId fn, std::vector<core::GaParameters> lane_params);

    std::size_t lane_count() const noexcept { return lanes_.size(); }
    /// Lane-block width in u64 words (the simulation carries words()*64
    /// lanes; configured lanes beyond lane_count() idle).
    unsigned words() const noexcept { return words_; }
    std::uint64_t cycles() const noexcept { return cycle_; }
    const CompiledNetlist& core_sim() const noexcept { return *core_; }
    /// Port and register nets of the simulated core (fault-site lookup).
    const GaCoreNetlist& core_ports() const noexcept { return *core_src_; }

    /// Formula cycle bound used when run(max_cycles = 0), in saturating
    /// u64 arithmetic: adversarial pop/gens configs clamp to "effectively
    /// unbounded" instead of wrapping to a bound that flags healthy runs.
    std::uint64_t default_cycle_bound() const;
    /// The same formula for one lane, counted from that lane's own reset
    /// (compare with lane_cycles()).
    std::uint64_t lane_cycle_bound(unsigned lane) const;
    /// GA-clock cycles since the lane's last reset (begin_run or load_lane).
    std::uint64_t lane_cycles(unsigned lane) const {
        check_lane(lane);
        return cycle_ - lanes_[lane].base;
    }

    /// Give one lane its own fitness function (call before the run
    /// starts; load_lane sets it for a lane reloaded mid-run).
    void set_lane_fitness(unsigned lane, fitness::FitnessId fn) {
        check_lane(lane);
        lanes_[lane].fn = fn;
    }

    /// Continuous refill: load a new job into `lane` while the other lanes
    /// keep stepping. The next step_cycle() raises the reset bit in this
    /// lane only; its peripherals start fresh in user mode (preset 0), its
    /// sink detaches, and its trace counts from that reset. `lane` may lie
    /// beyond lane_count() inside the block (the lanes in between stay free).
    void load_lane(unsigned lane, fitness::FitnessId fn, const core::GaParameters& p);

    /// Retire a lane whose job ended (or was abandoned): it no longer
    /// counts as unfinished, its peripherals stop and its sink detaches.
    /// Its result stays readable until the lane is loaded again.
    void free_lane(unsigned lane);

    /// Put one lane in a Table IV preset mode (1..3) from the next reset:
    /// its preset pins are driven, the init handshake is skipped (the
    /// paper's init-failure scenario) and the start pulse follows reset at
    /// once. Mode 0 restores the user-mode flow.
    void set_lane_preset(unsigned lane, std::uint8_t preset) {
        check_lane(lane);
        presets_[lane] = preset & 0x3;
    }

    /// Controller-FSM state of one lane (post-edge register value).
    std::uint8_t lane_state(unsigned lane) const;

    /// SEU hook: invert register bit `q` (a register Q net of core_ports())
    /// in one lane, between two cycles. The upset is visible from the next
    /// step_cycle() on (src/fault/campaign.cpp).
    void flip_register_bit(unsigned lane, Net q);

    /// Attach a telemetry sink to one lane (borrowed; nullptr detaches): the
    /// RT-level SystemTap's event stream minus its op counters, `cycle`
    /// counted from the lane's reset, `t` = cycle x 20 ns.
    void set_lane_sink(unsigned lane, trace::TraceSink* sink);

    /// Register per-lane waveform probes on `vcd` (borrowed; must outlive
    /// the run): one scope "gates.lane<k>" per lane, sampled once per GA
    /// cycle at 20'000 ps. One run per writer (VCD time is monotonic).
    void add_vcd(trace::VcdWriter* vcd, const std::vector<unsigned>& lanes_to_trace);

    /// Reset everything and run until every lane reaches GA_done (or the
    /// cycle bound trips; then throws). Returns one result per lane.
    std::vector<BatchLaneResult> run(std::uint64_t max_cycles = 0);

    /// Watchdog-friendly run(): a lane that misses the bound reports
    /// `finished == false` instead of throwing. `max_cycles` counts from
    /// reset (init handshake included); 0 selects the formula bound.
    std::vector<BatchLaneResult> run_bounded(std::uint64_t max_cycles = 0);

    // --- stepwise interface and island barrier ---------------------------
    // Callers may step the block one GA cycle at a time (gaipd, the fault
    // campaign) and park lanes at generation boundaries (src/island/): a
    // parked lane is clock-gated and its peripherals freeze, so it holds
    // its exact state while siblings evolve, and its GA memory can be
    // poked (right after the monitor's kGenCheck capture edge, where the
    // RTL island driver pokes GaMemory).

    /// Append one {index, value} write to a lane's init program (the
    /// migration registers 6/7 ride the handshake). Call before the run.
    void append_lane_write(unsigned lane, std::uint8_t index, std::uint16_t value) {
        check_lane(lane);
        lanes_[lane].program.emplace_back(index, value);
    }

    /// Reset every lane and both compiled netlists for a stepwise run.
    void begin_run();

    /// One GA-clock cycle; returns the count of unfinished lanes (parked
    /// lanes count as unfinished).
    std::size_t step_cycle();

    /// Arm the generation-synchronous barrier: an unfinished lane whose
    /// monitor pulse rises with mon_gen_id == `gen` parks right after the
    /// capture edge. Parked lanes stay parked until release_lanes().
    void arm_generation_barrier(std::uint32_t gen) {
        barrier_armed_ = true;
        barrier_gen_ = gen;
    }
    void disarm_generation_barrier() { barrier_armed_ = false; }

    /// Step until every lane is parked at the armed barrier or finished,
    /// or `max_cycles` (counted from reset) elapses. Returns the number of
    /// lanes still running — nonzero means a lane missed the barrier
    /// within the bound (the island watchdog's trip signal).
    std::size_t run_to_barrier(std::uint64_t max_cycles);

    /// Lanes neither finished, parked at the barrier nor free.
    std::size_t pending_lanes() const noexcept;
    /// Resume every parked lane (re-arm for the next boundary first).
    void release_lanes();
    /// GA cycles a lane spent clock-gated at barriers so far.
    std::uint64_t lane_stall_cycles(unsigned lane) const {
        check_lane(lane);
        return lanes_[lane].stall_cycles;
    }
    const BatchLaneResult& lane_result(unsigned lane) const {
        check_lane(lane);
        return lanes_[lane].result;
    }
    /// Current-population bank bit of one lane (post-edge register value).
    bool lane_bank(unsigned lane) const;

    /// Backdoor access to a lane's GA memory (256 x 32 words).
    std::uint32_t peek_lane_mem(unsigned lane, std::uint8_t addr) const;
    void poke_lane_mem(unsigned lane, std::uint8_t addr, std::uint32_t word);

private:
    /// One lane-block's worth of packed bits for a single signal.
    using WordVec = std::array<std::uint64_t, CompiledNetlist::kMaxWords>;
    using Handle = CompiledNetlist::SlotHandle;

    struct Lane {
        fitness::FitnessId fn = fitness::FitnessId::kOneMax;  ///< software FEM function
        std::uint64_t base = 0;  ///< runner cycle of the lane's last reset
        // init-handshake FSM (mirrors system::InitModule at GA granularity)
        std::vector<core::InitWrite> program;
        std::size_t init_item = 0;
        bool init_asserting = true;
        bool init_done = false;
        // start pulse
        int start_hold = -1;  ///< -1 = not yet scheduled; >0 = cycles left high
        bool started = false;
        std::uint64_t start_cycle = 0;  ///< runner cycle start_GA rose in
        // island barrier: clock-gated hold at a generation boundary
        bool parked = false;
        std::uint64_t stall_cycles = 0;
        // telemetry edge detectors (touched only when a sink is attached)
        bool prev_ack = false;
        bool prev_pulse = false;
        bool prev_bank = false;
        bool init_done_traced = false;
        bool start_traced = false;
        BatchLaneResult result;
    };

    void check_lane(unsigned lane) const;
    void drive_presets();
    void clear_lane_memory(std::size_t lane);
    void drive_handshake();
    void serve_fitness();
    std::size_t advance_lanes(const WordVec& data_ack_w, const WordVec& mem_wr_w,
                              const WordVec& mon_pulse_w, const WordVec& mon_bank_w);
    trace::TraceEvent lane_event(const Lane& l, const char* kind, std::uint64_t at) const;

    void drive_core(Handle h, const WordVec& v) { core_->write_words(h, v.data()); }
    void drive_rng(Handle h, const WordVec& v) { rng_->write_words(h, v.data()); }
    WordVec read_core(Handle h) const {
        WordVec v{};
        core_->read_words(h, v.data());
        return v;
    }

    std::vector<core::GaParameters> params_;
    std::vector<std::uint8_t> presets_;  ///< per-lane Table IV preset mode (0 = user)
    std::unique_ptr<GaCoreNetlist> core_src_;
    std::unique_ptr<RngNetlist> rng_src_;
    std::optional<CompiledNetlist> core_;
    std::optional<CompiledNetlist> rng_;
    unsigned words_ = 1;
    std::vector<Lane> lanes_;
    std::uint64_t cycle_ = 0;

    // Validated-once storage handles for every per-cycle signal (per-call
    // checks would otherwise dominate the harness at wide blocks).
    Handle hc_reset_, hc_ga_load_, hc_data_valid_, hc_start_, hc_fit_valid_;
    Handle hc_fit_request_, hc_data_ack_, hc_mem_wr_, hc_rn_next_;
    Handle hc_mon_pulse_, hc_mon_bank_;
    std::array<Handle, 3> hc_index_{};
    std::array<Handle, 16> hc_value_{}, hc_fit_value_{}, hc_rn_{}, hc_cand_{};
    std::array<Handle, 32> hc_mdi_{}, hc_mdo_{};
    std::array<Handle, 8> hc_addr_{};
    std::array<Handle, 6> hc_state_{};
    Handle hr_reset_, hr_ga_load_, hr_data_valid_, hr_start_, hr_rn_next_;
    std::array<Handle, 3> hr_index_{};
    std::array<Handle, 16> hr_value_{}, hr_rn_{};
    /// Fanout of fit_valid/fit_value: the same-cycle FEM response
    /// re-settles just this cone instead of the full stream.
    std::uint32_t fit_cone_ = 0;

    /// Lanes with a job (configured and not freed); the others hold their
    /// inputs at 0 and their peripherals stopped.
    WordVec live_{};
    /// Lanes whose reset bit rises in the next cycle (load_lane).
    WordVec reset_{};
    bool reset_high_ = false;  ///< a reloaded lane's reset bit was driven last cycle
    /// True once no lane is in its init handshake or start pulse: the
    /// handshake drive words are all-zero from then on (the storage holds
    /// the zeros of the transition cycle), so step() skips them.
    bool handshake_quiet_ = false;
    /// GA memory of every lane, element [addr * lanes in block + lane]:
    /// lanes in step read the same address, so a cycle touches a few
    /// contiguous cache lines.
    std::vector<std::uint32_t> mem_;
    /// mem_data_in drive words for the next cycle (bit k of [j][w] = bit j
    /// of lane w*64+k's read data), refreshed by every step().
    std::array<WordVec, 32> mdi_{};
    // island barrier state: per-lane clock-gate mask + armed boundary
    WordVec stall_{};
    bool barrier_armed_ = false;
    std::uint32_t barrier_gen_ = 0;
    std::vector<trace::TraceSink*> lane_sinks_;
    bool tracing_ = false;
    trace::VcdWriter* vcd_ = nullptr;
};

}  // namespace gaip::gates
