/**
 * @file
 * SigStore: the trusted linker/loader side of REV.
 *
 * For every module of a program it derives the reference CFG, builds the
 * encrypted signature table, assigns the table a home in RAM, and exposes
 * the (module range, table base) records that initialize the SAG base /
 * limit / key registers (Sec. IV.B). The per-module symmetric keys are
 * generated here and survive only in wrapped form inside the table
 * headers, mirroring Sec. IX.
 */

#ifndef REV_SIG_SIGSTORE_HPP
#define REV_SIG_SIGSTORE_HPP

#include <memory>
#include <vector>

#include "common/random.hpp"
#include "program/cfg.hpp"
#include "program/program.hpp"
#include "sig/table.hpp"

namespace rev::sig
{

/** RAM region where signature tables are placed (above heap and stack). */
inline constexpr Addr kSigTableRegion = 0x20000000;

/** A program's CFGs, linked once and shared by every store built from
 *  them (sigstore.cpp). */
struct ProgramAnalysis;

/** Everything REV needs to know about one module's signatures. */
struct ModuleSig
{
    const prog::Module *module = nullptr;
    /** The module's reference CFG, owned by the store's shared analysis. */
    const prog::Cfg *cfg = nullptr;
    Addr tableBase = 0;
    TableStats stats;
};

/**
 * Builds and manages the signature tables of one program.
 */
class SigStore
{
  public:
    /**
     * Derive CFGs and build all tables.
     *
     * @param program   The program (annotations must already include any
     *                  profiled indirect targets).
     * @param mode      Validation mode shared by all tables.
     * @param vault     CPU key vault the tables are bound to.
     * @param seed      Seeds per-module key generation.
     * @param cfg_donor Optional store built for the same program and split
     *                  limits (any mode): its analysis (CFGs, and block
     *                  hashes when built with the same rounds) is shared
     *                  instead of re-derived. The analysis is
     *                  mode-independent, so the resulting tables are
     *                  byte-identical either way.
     */
    SigStore(const prog::Program &program, ValidationMode mode,
             const crypto::KeyVault &vault, u64 seed = 1,
             const prog::SplitLimits &limits = {},
             unsigned hash_rounds = 5,
             const SigStore *cfg_donor = nullptr);

    /**
     * Re-derive every CFG and rebuild every table from @p program's
     * current contents. This is the trusted dynamic linker / OS path of
     * Sec. IV.E: after new code is generated or a module is dynamically
     * linked (and its annotations merged), the tables are regenerated
     * with fresh keys before the code may execute. Call loadInto() and
     * Validator::refreshTables() afterwards.
     */
    void rebuild(const prog::Program &program);

    /** Copy every table image into simulated RAM. */
    void loadInto(SparseMemory &mem) const;

    /**
     * Point future rebuild()s at @p vault. A copied store (e.g. one
     * cloned from a shared prototype) still references its builder's
     * vault; the copy's owner rebinds it to a vault with the same fuses
     * so the copy has no lifetime ties to the prototype's owner. Copies
     * are shallow: the analysis and the table images are immutable and
     * shared, and a rebuild() replaces rather than mutates them.
     */
    void rebindVault(const crypto::KeyVault &vault) { vault_ = &vault; }

    /** Per-module signature records, in program module order. */
    const std::vector<ModuleSig> &moduleSigs() const { return sigs_; }

    /** Record for the module whose code contains @p addr, or nullptr. */
    const ModuleSig *findByCode(Addr addr) const;

    ValidationMode mode() const { return mode_; }
    unsigned hashRounds() const { return hashRounds_; }

    /** Sum of table sizes in bytes. */
    u64 totalTableBytes() const;

  private:
    void rebuildWith(const prog::Program &program, const SigStore *cfg_donor);

    ValidationMode mode_;
    unsigned hashRounds_;
    const crypto::KeyVault *vault_;
    u64 seed_;
    prog::SplitLimits limits_;
    u64 generation_ = 0; ///< bumps each rebuild (fresh keys/nonces)
    std::shared_ptr<const ProgramAnalysis> analysis_;
    /** bbHash() per block of each module's CFG, at hashRounds_; null
     *  until a Full or Aggressive build needs them. */
    std::shared_ptr<const std::vector<std::vector<u32>>> blockHashes_;
    std::vector<ModuleSig> sigs_;
    std::shared_ptr<const std::vector<std::vector<u8>>> images_;
};

} // namespace rev::sig

#endif // REV_SIG_SIGSTORE_HPP
