/**
 * @file
 * Static control-flow analysis of a module: the reference CFG from which
 * signature tables are built (Sec. IV.A, IV.D, V).
 *
 * REV identifies a basic block (BB) by the address of the control-flow
 * instruction that terminates it. The hardware hashes the byte stream from
 * the dynamic entry point up to and including the terminator, so when
 * control can enter a straight-line run in the middle (a branch into the
 * body), each distinct entry point yields its own validation unit: a BB
 * with the same terminator but a different start and hash. The table
 * formats of Sec. V discriminate such entries via tags; we model them as
 * separate BasicBlock records sharing a terminator address.
 *
 * Very long straight-line runs are split artificially, bounding the number
 * of instructions or stores per BB (whichever limit is hit first), so the
 * post-commit ROB/store-queue extensions stay finite (Sec. IV.A).
 */

#ifndef REV_PROGRAM_CFG_HPP
#define REV_PROGRAM_CFG_HPP

#include <span>
#include <vector>

#include "program/module.hpp"

namespace rev::prog
{

/** What terminates a basic block. */
enum class TermKind : u8
{
    Branch,       ///< conditional PC-relative branch: {target, fallthrough}
    Jump,         ///< direct jump: {target}
    Call,         ///< direct call: {callee entry}
    CallIndirect, ///< computed call: annotated target set
    JumpIndirect, ///< computed jump: annotated target set
    Return,       ///< return: statically derived return-site set
    Halt,         ///< no successor
    Split,        ///< artificial boundary: {fallthrough}
};

/** True iff the terminator's target is computed at run time. */
inline bool
termIsComputed(TermKind k)
{
    return k == TermKind::CallIndirect || k == TermKind::JumpIndirect;
}

/**
 * One validation unit: entry point -> terminating control-flow
 * instruction.
 */
struct BasicBlock
{
    u32 id = 0;

    Addr start = 0; ///< address of the first instruction
    Addr term = 0;  ///< address of the terminating instruction (BB identity)
    Addr end = 0;   ///< first byte past the terminator (fall-through addr)

    u32 numInstrs = 0;
    u32 numStores = 0; ///< memory-writing instructions (ST and CALL*)

    TermKind kind = TermKind::Halt;

    /** Start addresses of the possible successor BBs. */
    std::vector<Addr> succs;

    /**
     * For BBs whose start can be entered via a return: addresses of the
     * RET instructions that may precede entry (Sec. V.A delayed return
     * validation).
     */
    std::vector<Addr> retPreds;

    u64 sizeBytes() const { return end - start; }
};

/** Artificial-split thresholds (Sec. IV.A). */
struct SplitLimits
{
    unsigned maxInstrs = 48;
    unsigned maxStores = 8;

    bool operator==(const SplitLimits &) const = default;
};

/** Aggregate statistics reported in Sec. VIII. */
struct CfgStats
{
    u64 numBlocks = 0;
    u64 numTerminators = 0; ///< distinct terminator addresses
    double avgInstrsPerBlock = 0.0;
    double avgSuccsPerBlock = 0.0;
    u64 numComputedSites = 0; ///< CALLR/JMPR instruction count
    u64 numBranchInstrs = 0;  ///< static control-flow instruction count
};

/**
 * The reference CFG of one module.
 */
class Cfg
{
  public:
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /** Block whose entry point is @p start; nullptr if not a valid entry. */
    const BasicBlock *blockAtStart(Addr start) const;

    /**
     * Indices into blocks() of every block terminated by the instruction
     * at @p term, ascending; empty if none. A view into the CFG's own
     * index: valid as long as the CFG is.
     */
    std::span<const u32> blocksAtTerm(Addr term) const;

    /** The split limits the analysis used (front end must match them). */
    const SplitLimits &splitLimits() const { return limits_; }

    CfgStats stats() const;

  private:
    friend Cfg buildCfg(const Module &mod, const SplitLimits &limits);
    friend std::vector<Cfg> buildCfgs(const std::vector<Module> &modules,
                                      const SplitLimits &limits);
    friend void linkCfgs(const std::vector<Cfg *> &cfgs);

    /** Blocks and successor sets of @p mod, without return edges. */
    static Cfg derive(const Module &mod, const SplitLimits &limits);

    std::vector<BasicBlock> blocks_;
    // Flat sorted indices. Block startIds_[i] starts at starts_[i]
    // (ascending); block termIds_[i] ends at terms_[i], ordered by
    // (terminator, block index).
    std::vector<Addr> starts_;
    std::vector<u32> startIds_;
    std::vector<Addr> terms_;
    std::vector<u32> termIds_;
    SplitLimits limits_;
};

/**
 * Build the reference CFG of @p mod. The module's code region must decode
 * cleanly end-to-end (the trusted toolchain guarantees this); undecodable
 * code is a fatal error. Computed-transfer sites with no annotated targets
 * are allowed here but will be flagged by the signature builder.
 *
 * Return-site analysis is run for the module in isolation. For a program
 * that links several modules use buildCfgs(), so returns that cross
 * module boundaries resolve (the trusted linker's job, Sec. IV.B).
 */
Cfg buildCfg(const Module &mod, const SplitLimits &limits = {});

/**
 * Build the reference CFGs of all of a program's @p modules and run the
 * program-wide return-site analysis over them once. For a single module
 * the result equals buildCfg().
 */
std::vector<Cfg> buildCfgs(const std::vector<Module> &modules,
                           const SplitLimits &limits = {});

/**
 * Program-level return-site analysis: recompute, across all modules, the
 * successor sets of RET-terminated blocks and the RET-predecessor lists of
 * return-site blocks (Sec. V.A). Idempotent; replaces any previous
 * return-edge information.
 */
void linkCfgs(const std::vector<Cfg *> &cfgs);

} // namespace rev::prog

#endif // REV_PROGRAM_CFG_HPP
