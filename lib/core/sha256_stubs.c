/* SHA-256 compression through the x86 SHA extensions.

   One kernel, [ipds_sha256_compress], runs [n] full 64-byte blocks of
   an OCaml [Bytes] through the FIPS 180-4 compression function with
   sha256rnds2 / sha256msg1 / sha256msg2.  The chaining state is a
   32-byte [Bytes] holding the eight words big-endian, which is also
   the digest's byte order, so the OCaml side reads the digest
   straight out of it.

   Only the kernel is compiled for the SHA, SSE4.1 and SSSE3 targets;
   the rest of the library stays baseline x86-64.  [Sha256] calls it
   only when [ipds_sha256_hw_available] (CPUID leaf 7 EBX bit 29 for
   SHA, leaf 1 ECX bits 9 and 19 for SSSE3 and SSE4.1) said yes at
   module initialisation.  On any other host the file compiles to "no
   hardware kernel" and the OCaml compression is the only path.

   The kernel reads the caller's bytes and writes the state, nothing
   else: it allocates nothing and never enters the runtime, so it is
   bound [@@noalloc] with untagged ints and any number of domains may
   call it at once. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

#define SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/* FIPS 180-4 §4.2.2 round constants, four per 128-bit load */
static const uint32_t k256[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* Four rounds on message quad [q] (words 4j .. 4j+3): sha256rnds2
   does two rounds with the low two words of its third operand. */
#define ROUNDS4(q, j)                                                     \
  do {                                                                    \
    __m128i m_ = _mm_add_epi32(                                           \
        (q), _mm_load_si128((const __m128i *)(k256 + 4 * (j))));          \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, m_);                         \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(m_, 0x0E)); \
  } while (0)

/* The schedule one quad ahead: q0 held W[t-16 .. t-13] and becomes
   W[t .. t+3], from q1 = W[t-12 ..], q2 = W[t-8 ..], q3 = W[t-4 ..].
   msg1 adds sigma0 of W[t-15 ..], the alignr supplies W[t-7 ..] and
   msg2 adds sigma1 of W[t-2 ..], including the two words it makes. */
#define SCHEDULE(q0, q1, q2, q3)                                          \
  (q0) = _mm_sha256msg2_epu32(                                            \
      _mm_add_epi32(_mm_sha256msg1_epu32((q0), (q1)),                     \
                    _mm_alignr_epi8((q3), (q2), 4)),                      \
      (q3))

SHA_TARGET static void compress(uint8_t *state, const uint8_t *p, intnat n)
{
  /* byte-swaps each 32-bit lane: big-endian words to host order */
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_shuffle_epi8(_mm_loadu_si128((__m128i *)state), bswap);
  __m128i hgfe =
      _mm_shuffle_epi8(_mm_loadu_si128((__m128i *)(state + 16)), bswap);
  /* the rounds want the state as (a, b, e, f) and (c, d, g, h) */
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i q0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)p), bswap);
    __m128i q1 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i q2 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i q3 =
        _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(q0, 0);
    ROUNDS4(q1, 1);
    ROUNDS4(q2, 2);
    ROUNDS4(q3, 3);
    for (int j = 4; j < 16; j += 4) {
      SCHEDULE(q0, q1, q2, q3);
      ROUNDS4(q0, j);
      SCHEDULE(q1, q2, q3, q0);
      ROUNDS4(q1, j + 1);
      SCHEDULE(q2, q3, q0, q1);
      ROUNDS4(q2, j + 2);
      SCHEDULE(q3, q0, q1, q2);
      ROUNDS4(q3, j + 3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128((__m128i *)state, _mm_shuffle_epi8(dcba, bswap));
  _mm_storeu_si128((__m128i *)(state + 16), _mm_shuffle_epi8(hgfe, bswap));
}

static int hw_available(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (__get_cpuid_max(0, 0) < 7) return 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  if (!(ecx & (1u << 9)) || !(ecx & (1u << 19))) return 0;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx >> 29) & 1;
}

#else

static void compress(uint8_t *state, const uint8_t *p, intnat n)
{
  (void)state;
  (void)p;
  (void)n;
}

static int hw_available(void) { return 0; }

#endif

/* [n] blocks of [buf] from byte [pos] into [state]; the caller has
   bounds-checked the range and checked [ipds_sha256_hw_available]. */
value ipds_sha256_compress(value buf, intnat pos, intnat n, value state)
{
  compress(Bytes_val(state), Bytes_val(buf) + pos, n);
  return Val_unit;
}

value ipds_sha256_compress_byte(value buf, value pos, value n, value state)
{
  return ipds_sha256_compress(buf, Long_val(pos), Long_val(n), state);
}

value ipds_sha256_hw_available(value unit)
{
  (void)unit;
  return Val_bool(hw_available());
}
