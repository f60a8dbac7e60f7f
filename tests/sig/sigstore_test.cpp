/**
 * @file
 * SigStore (trusted linker/loader) tests.
 */

#include <gtest/gtest.h>

#include "sig/sigstore.hpp"
#include "testutil.hpp"

namespace rev::sig
{
namespace
{

prog::Program
makeTwoModuleProgram()
{
    prog::Program p;
    {
        prog::Assembler a(prog::kDefaultCodeBase);
        a.label("main");
        a.movi(1, 1);
        a.halt();
        p.addModule(a.finalize("main", "main"));
    }
    {
        prog::Assembler a(p.nextModuleBase());
        a.label("libfn");
        a.addi(1, 1, 7);
        a.ret();
        p.addModule(a.finalize("libm", "libfn"));
    }
    return p;
}

TEST(SigStore, OneTablePerModule)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    EXPECT_EQ(store.moduleSigs().size(), 2u);
}

TEST(SigStore, TablesDoNotOverlap)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    const auto &sigs = store.moduleSigs();
    const Addr end0 = sigs[0].tableBase + sigs[0].stats.sizeBytes;
    EXPECT_GE(sigs[1].tableBase, end0);
}

TEST(SigStore, LoadedTablesAreReadable)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);

    SparseMemory mem;
    store.loadInto(mem);
    for (const auto &sig : store.moduleSigs()) {
        TableReader reader(mem, sig.tableBase, vault);
        ASSERT_TRUE(reader.valid());
        for (const auto &bb : sig.cfg->blocks()) {
            EXPECT_TRUE(reader
                            .lookup(bb.term, bbHash(*sig.module, bb, 5), sig.module->base)
                            .found);
        }
    }
}

TEST(SigStore, FindByCode)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);

    const auto *m0 = store.findByCode(p.modules()[0].base);
    const auto *m1 = store.findByCode(p.modules()[1].base);
    ASSERT_NE(m0, nullptr);
    ASSERT_NE(m1, nullptr);
    EXPECT_NE(m0, m1);
    EXPECT_EQ(store.findByCode(0xdead0000), nullptr);
}

TEST(SigStore, PerModuleKeysDiffer)
{
    // Decrypting module B's table while pretending it is module A's must
    // fail: keys are distinct. We verify indirectly: swap the two table
    // bodies in RAM and observe lookups break.
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    SparseMemory mem;
    store.loadInto(mem);

    const auto &s0 = store.moduleSigs()[0];
    const auto &s1 = store.moduleSigs()[1];
    // Copy s1's body over s0's body (headers stay put).
    const u64 body0 = s0.stats.sizeBytes - kHeaderBytes;
    for (u64 i = 0; i < std::min(body0, s1.stats.sizeBytes - kHeaderBytes);
         ++i) {
        mem.write8(s0.tableBase + kHeaderBytes + i,
                   mem.read8(s1.tableBase + kHeaderBytes + i));
    }
    TableReader reader(mem, s0.tableBase, vault);
    ASSERT_TRUE(reader.valid());
    const auto &bb = s0.cfg->blocks().front();
    const auto res = reader.lookup(bb.term, bbHash(*s0.module, bb, 5), s0.module->base);
    // With a foreign body decrypted under the wrong key, the walk cannot
    // produce this module's reference data.
    if (res.found) {
        EXPECT_NE(res.hash, bbHash(*s0.module, bb, 5));
    }
}

TEST(SigStore, TotalBytesMatchesStats)
{
    crypto::KeyVault vault(1);
    auto p = makeTwoModuleProgram();
    SigStore store(p, ValidationMode::Full, vault);
    u64 sum = 0;
    for (const auto &sig : store.moduleSigs())
        sum += sig.stats.sizeBytes;
    EXPECT_EQ(store.totalTableBytes(), sum);
}

} // namespace
} // namespace rev::sig
