/**
 * @file
 * The 64-bit FNV-1a hash the digest tests pin their constants with.
 * Integers enter it byte by byte, low byte first, so a digest is the
 * same on every compiler and host.
 */

#ifndef GRP_TESTS_FNV1A_HH
#define GRP_TESTS_FNV1A_HH

#include <cstdint>
#include <string>

namespace grp
{

class Fnv1a
{
  public:
    void
    mix(uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    void
    mix(const std::string &text)
    {
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= 0x100000001b3ull;
        }
        mix(text.size());
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace grp

#endif // GRP_TESTS_FNV1A_HH
