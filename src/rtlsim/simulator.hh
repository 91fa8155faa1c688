/**
 * @file
 * Cycle-accurate RTL interpreter over a flattened circuit.
 *
 * This plays two roles in the reproduction:
 *  - the "monolithic FireSim simulation" golden reference of Table II
 *    (a non-partitioned, cycle-exact execution of the target design);
 *  - the per-partition target-model evaluator inside each LI-BDN
 *    (src/libdn), where it is invoked with partial input knowledge —
 *    an output value is only *read* once all inputs it combinationally
 *    depends on are known, which the dependency matrix computed here
 *    guarantees is safe.
 *
 * The interpreter compiles every connect expression to a small postfix
 * program evaluated on a value stack, orders all combinational
 * evaluation nodes topologically once at construction, and then
 * evaluates cycles with no allocation.
 */

#ifndef FIREAXE_RTLSIM_SIMULATOR_HH
#define FIREAXE_RTLSIM_SIMULATOR_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "firrtl/ir.hh"
#include "rtlsim/engine.hh"

namespace fireaxe::rtlsim {

class CompiledEngine;
struct CompiledProgram;
struct ProgramBuilder;

/** Categories of flat signals. */
enum class SigKind { Input, Output, Comb, Reg };

/** One signal slot in the flat value table. */
struct Signal
{
    std::string name;
    unsigned width;
    SigKind kind;
    uint64_t init = 0;
};

/** Snapshot of all sequential state (registers + memory contents).
 *  Used by the FAME-5 model to hold one copy per thread. */
struct SeqState
{
    std::vector<uint64_t> regValues;
    std::vector<std::vector<uint64_t>> memContents;
};

/**
 * The interpreter. Construct from a circuit whose top module is fully
 * flat (no instances) — see passes::flattenAll().
 */
class Simulator
{
  public:
    /**
     * @param flat_circuit the design (top must be instance-free).
     * @param engine       evaluation engine; both engines are
     *                     bit-exact, Compiled adds one-shot bytecode
     *                     compilation plus activity gating (see
     *                     rtlsim/engine.hh). Defaults to the
     *                     process-wide FIREAXE_EVAL choice.
     * @param precompiled  optional shared compiled program (Compiled
     *                     engine only) harvested from an earlier
     *                     simulator of the same flat circuit — the
     *                     content-addressed artifact the service
     *                     cache stores. A mismatched program is
     *                     ignored (fresh compile) with a warning.
     */
    explicit Simulator(
        const firrtl::Circuit &flat_circuit,
        EvalEngine engine = defaultEvalEngine(),
        std::shared_ptr<const CompiledProgram> precompiled = nullptr);
    ~Simulator();

    // The compiled engine holds a back-reference to this simulator,
    // so the object must stay put.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** The engine this simulator evaluates with. */
    EvalEngine evalEngine() const { return engine_; }

    /** The shared compiled program backing this simulator (null
     *  under Interpret). Shareable with any simulator of the same
     *  flat circuit — this is what the artifact cache stores. */
    std::shared_ptr<const CompiledProgram> compiledProgram() const;

    /** Evaluation-node executions across all evalComb() calls (the
     *  interpreter evaluates every node every call). */
    uint64_t nodesEvaluated() const;
    /** Nodes skipped by activity gating (0 under Interpret). */
    uint64_t nodesSkipped() const;
    /** Total evaluation nodes in the design. */
    size_t numNodes() const { return nodes_.size(); }

    /** Index of a signal by flat name; -1 if unknown. */
    int signalIndex(const std::string &name) const;

    /** Signal metadata. */
    const Signal &signal(int idx) const { return signals_[idx]; }
    size_t numSignals() const { return signals_.size(); }

    /** Set an input (or any) signal value; takes effect at the next
     *  evalComb(). */
    void poke(const std::string &name, uint64_t value);
    void pokeIdx(int idx, uint64_t value);

    /** Read a signal's current value (call evalComb() first for comb
     *  signals). */
    uint64_t peek(const std::string &name) const;
    uint64_t peekIdx(int idx) const { return values_[idx]; }
    /** Every signal's current value, indexed like peekIdx(). */
    std::span<const uint64_t> values() const { return values_; }

    /** Recompute all combinational signals and register next-values
     *  from the current inputs and sequential state. */
    void evalComb();

    /** Advance one clock: latch register next-values and perform
     *  memory writes (as computed by the last evalComb()), then
     *  re-evaluate combinational logic. */
    void step();

    /** Run evalComb+step for @p n cycles. */
    void run(uint64_t n);

    /** Restore all state (registers, memories, inputs) to initial
     *  values and re-evaluate. */
    void reset();

    uint64_t cycle() const { return cycle_; }

    /** Indices of input / output port signals, in port order. */
    const std::vector<int> &inputs() const { return inputs_; }
    const std::vector<int> &outputs() const { return outputs_; }

    /** For an output signal index: indices of the *input* signals it
     *  combinationally depends on. Source outputs (paper terminology)
     *  have empty sets. */
    const std::set<int> &outputDeps(int output_idx) const;

    /** Copy out / restore sequential state (FAME-5 thread swap). */
    void saveState(SeqState &out) const;
    void loadState(const SeqState &in);

    /**
     * Serialize the full simulation state (cycle count, every signal
     * value, memory contents) to a stream, and restore it later —
     * LiveSim-style checkpointing so long runs can resume or fork.
     *
     * tryLoadCheckpoint() validates the whole stream against this
     * simulator's design before committing anything: on failure it
     * returns false with a diagnostic in @p error and leaves the
     * simulator state untouched, so recovery code can reject a
     * stale or corrupt snapshot gracefully. loadCheckpoint() is the
     * fatal()ing wrapper kept for CLI callers.
     */
    void saveCheckpoint(std::ostream &os) const;
    bool tryLoadCheckpoint(std::istream &is, std::string &error);
    void loadCheckpoint(std::istream &is);

    /** Direct access to memory words (for loading test programs). */
    void writeMem(const std::string &mem_name, uint64_t addr,
                  uint64_t data);
    uint64_t readMem(const std::string &mem_name, uint64_t addr) const;

  private:
    friend class CompiledEngine;
    friend struct ProgramBuilder;

    struct POp
    {
        enum Kind : uint8_t {
            PushLit, PushSig, Un, Bin, Mux, Bits, Cat
        } kind;
        firrtl::UnOpKind un;
        firrtl::BinOpKind bin;
        unsigned width = 0;
        uint64_t lit = 0;
        int sig = -1;
        unsigned hi = 0, lo = 0;
        unsigned lowWidth = 0;
    };

    struct CompiledExpr
    {
        std::vector<POp> ops;
    };

    enum class NodeKind { CombAssign, MemRead, RegNext };

    struct EvalNode
    {
        NodeKind kind;
        int lhs;        // signal index written (or reg index target)
        int mem = -1;   // for MemRead: memory index
        CompiledExpr expr;
        unsigned lhsWidth = 0;
        std::vector<int> readSigs; // signal indices read
    };

    struct MemInfo
    {
        std::string name;
        unsigned depth;
        unsigned width;
        int raddr, rdata, waddr, wdata, wen;
    };

    void compileExpr(const firrtl::ExprPtr &expr, CompiledExpr &out);
    uint64_t evalExpr(const CompiledExpr &expr) const;
    void buildTopoOrder();
    void buildDepMatrix();

    std::vector<Signal> signals_;
    std::map<std::string, int> signalIdx_;
    std::vector<uint64_t> values_;
    std::vector<MemInfo> mems_;
    std::vector<std::vector<uint64_t>> memData_;
    std::vector<EvalNode> nodes_;
    std::vector<int> evalOrder_;    // node indices, topo-sorted
    std::vector<int> regSigs_;      // signal indices of registers
    std::vector<uint64_t> regNext_; // pending next values per register
    std::vector<bool> regHasNext_;  // whether a driver exists
    std::map<int, int> regNextSlot_; // reg signal idx -> slot
    std::vector<int> inputs_;
    std::vector<int> outputs_;
    std::map<int, std::set<int>> outputDeps_;
    mutable std::vector<uint64_t> stack_;
    uint64_t cycle_ = 0;
    EvalEngine engine_ = EvalEngine::Interpret;
    /** Non-null iff engine_ == Compiled. */
    std::unique_ptr<CompiledEngine> compiled_;
    /** Interpreter-side node-execution counter. */
    uint64_t interpEvaluated_ = 0;
};

} // namespace fireaxe::rtlsim

#endif // FIREAXE_RTLSIM_SIMULATOR_HH
