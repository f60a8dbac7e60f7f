/**
 * @file
 * AES-128 known-answer and property tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/random.hpp"
#include "crypto/aes.hpp"

namespace rev::crypto
{
namespace
{

/** FIPS-197 Appendix B example vector. */
TEST(Aes128, Fips197KnownAnswer)
{
    const AesKey key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                        0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
    AesBlock block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                      0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
    const AesBlock expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};

    Aes128 aes(key);
    aes.encryptBlock(block.data());
    EXPECT_EQ(block, expect);
}

TEST(Aes128, DecryptInvertsEncrypt)
{
    Rng rng(11);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    for (int t = 0; t < 100; ++t) {
        AesBlock block, orig;
        for (auto &b : block)
            b = static_cast<u8>(rng.next());
        orig = block;
        aes.encryptBlock(block.data());
        EXPECT_NE(block, orig);
        aes.decryptBlock(block.data());
        EXPECT_EQ(block, orig);
    }
}

TEST(Aes128, DifferentKeysDifferentCiphertext)
{
    AesKey k1{}, k2{};
    k2[0] = 1;
    AesBlock b1{}, b2{};
    Aes128(k1).encryptBlock(b1.data());
    Aes128(k2).encryptBlock(b2.data());
    EXPECT_NE(b1, b2);
}

TEST(Aes128, CtrRoundTrip)
{
    Rng rng(22);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    std::vector<u8> data(1000), orig;
    for (auto &b : data)
        b = static_cast<u8>(rng.next());
    orig = data;

    aes.ctrCrypt(data, 42);
    EXPECT_NE(data, orig);
    aes.ctrCrypt(data, 42);
    EXPECT_EQ(data, orig);
}

TEST(Aes128, CtrNonceSeparatesStreams)
{
    AesKey key{};
    Aes128 aes(key);
    std::vector<u8> a(64, 0), b(64, 0);
    aes.ctrCrypt(a, 1);
    aes.ctrCrypt(b, 2);
    EXPECT_NE(a, b);
}

TEST(Aes128, CtrCryptAtSlicesEquivalentToFullStream)
{
    // Decrypting any sub-range at its stream offset must equal the same
    // bytes of a whole-stream decrypt -- the property the table walker
    // relies on to decrypt single records.
    Rng rng(77);
    AesKey key;
    for (auto &b : key)
        b = static_cast<u8>(rng.next());
    Aes128 aes(key);

    std::vector<u8> plain(512);
    for (auto &b : plain)
        b = static_cast<u8>(rng.next());

    std::vector<u8> stream = plain;
    aes.ctrCrypt(stream, 5); // ciphertext

    for (int t = 0; t < 200; ++t) {
        const std::size_t off = rng.below(stream.size());
        const std::size_t len =
            1 + rng.below(stream.size() - off);
        std::vector<u8> slice(stream.begin() + off,
                              stream.begin() + off + len);
        aes.ctrCryptAt(slice.data(), slice.size(), 5, off);
        ASSERT_EQ(0, std::memcmp(slice.data(), plain.data() + off, len))
            << "off=" << off << " len=" << len;
    }
}

TEST(Aes128, CtrNonMultipleOf16Length)
{
    AesKey key{};
    Aes128 aes(key);
    std::vector<u8> data(37, 0xcc), orig = data;
    aes.ctrCrypt(data, 9);
    aes.ctrCrypt(data, 9);
    EXPECT_EQ(data, orig);
}

/** FNV-1a 64 of @p data, for pinning keystream bytes. */
u64
fnv1a(const std::vector<u8> &data)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (u8 b : data) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

AesKey
pinKey()
{
    AesKey key;
    for (int i = 0; i < 16; ++i)
        key[i] = static_cast<u8>(0x3c + 17 * i);
    return key;
}

TEST(Aes128, CtrStreamIsPinned)
{
    // A 1 MiB keystream (CTR over zeros), pinned from the reference
    // byte-wise implementation: any change to the round function, the
    // key schedule or the counter-block layout moves it.
    const Aes128 aes(pinKey());
    std::vector<u8> stream(1u << 20, 0);
    aes.ctrCrypt(stream, 0x0123456789abcdefULL);
    EXPECT_EQ(fnv1a(stream), 0x5f0caed2a503486cULL);
}

TEST(Aes128, CtrCryptAtUnalignedSlicesArePinned)
{
    // Slices that start mid-block and straddle one or more block
    // boundaries, as the table walker decrypts single records.
    const Aes128 aes(pinKey());
    const u64 nonce = 0xfeedfacecafebeefULL;
    std::vector<u8> full(4096, 0);
    aes.ctrCrypt(full, nonce);

    const std::pair<u64, std::size_t> slices[] = {
        {1, 15}, {1, 16}, {7, 11}, {15, 2}, {15, 33}, {17, 17},
        {31, 1}, {33, 64}, {100, 150}, {4000, 96}, {4095, 1}};
    std::vector<u8> all;
    for (const auto &[off, len] : slices) {
        std::vector<u8> slice(len, 0);
        aes.ctrCryptAt(slice.data(), slice.size(), nonce, off);
        ASSERT_TRUE(std::equal(slice.begin(), slice.end(),
                               full.begin() + static_cast<long>(off)))
            << "off=" << off << " len=" << len;
        all.insert(all.end(), slice.begin(), slice.end());
    }
    EXPECT_EQ(fnv1a(all), 0x6427912ffd906042ULL);
}

} // namespace
} // namespace rev::crypto
