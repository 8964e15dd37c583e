/* CRC-32 (reflected polynomial 0xEDB88320) by carry-less multiplication.

   One kernel, [ipds_crc32_fold], advances a CRC state over [len] bytes
   of an OCaml [Bytes], where [len] is a multiple of 16 and at least 64.
   It keeps four 128-bit accumulators over the first 64 bytes and folds
   each forward by 512 bits per 64-byte step (PCLMULQDQ against
   x^(512+32) and x^(512-32) mod P), folds the four into one, folds the
   remaining 16-byte blocks into that one by 128 bits, then reduces 128
   bits to 64, 64 to 32, and finishes with a Barrett reduction.  This is
   the method of Gopal et al., "Fast CRC Computation for Generic
   Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with the
   constants of the bit-reflected CRC-32.

   The state is the running register, before the final inversion, so
   [Crc32] seeds it with 0xFFFFFFFF, runs this kernel over the
   16-byte-multiple prefix of a range and finishes the tail with its
   slice-by-8 tables.

   Only the kernel is compiled for the PCLMUL and SSE4.1 targets; the
   rest of the library stays baseline x86-64.  [Crc32] calls it only
   when [ipds_crc32_hw_available] (CPUID leaf 1 ECX bit 1 for
   PCLMULQDQ, bit 19 for SSE4.1) said yes at module initialisation.  On
   any other host the file compiles to "no hardware kernel" and the
   OCaml slice-by-8 is the only path.

   The kernel reads the caller's bytes and nothing else: it allocates
   nothing and never enters the runtime, so it is bound [@@noalloc]
   with untagged ints and any number of domains may call it at once. */

#include <stdint.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

#define CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

/* Bit-reflected constants, each with its implicit x^32 term:
   k1 = x^(4*128+32) mod P, k2 = x^(4*128-32) mod P (the 512-bit fold),
   k3 = x^(128+32) mod P, k4 = x^(128-32) mod P (the 128-bit fold),
   k5 = x^64 mod P (64 to 32 bits), P' the polynomial and mu
   = floor(x^64 / P), both reflected, for the Barrett step. */
#define K1 0x154442bd4ULL
#define K2 0x1c6e41596ULL
#define K3 0x1751997d0ULL
#define K4 0x0ccaa009eULL
#define K5 0x163cd6124ULL
#define POLY 0x1db710641ULL
#define MU 0x1f7011641ULL

/* [x] folded forward over [k]'s distance and added to [data]: the low
   half times [k]'s low constant plus the high half times its high one */
CLMUL_TARGET static inline __m128i fold(__m128i x, __m128i k, __m128i data)
{
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

CLMUL_TARGET static uint32_t crc_fold(uint32_t crc, const uint8_t *p,
                                      intnat len)
{
  const __m128i *q = (const __m128i *)p;
  __m128i x0 = _mm_xor_si128(_mm_loadu_si128(q), _mm_cvtsi32_si128((int)crc));
  __m128i x1 = _mm_loadu_si128(q + 1);
  __m128i x2 = _mm_loadu_si128(q + 2);
  __m128i x3 = _mm_loadu_si128(q + 3);
  q += 4;
  len -= 64;

  __m128i k = _mm_set_epi64x(K2, K1);
  for (; len >= 64; len -= 64, q += 4) {
    x0 = fold(x0, k, _mm_loadu_si128(q));
    x1 = fold(x1, k, _mm_loadu_si128(q + 1));
    x2 = fold(x2, k, _mm_loadu_si128(q + 2));
    x3 = fold(x3, k, _mm_loadu_si128(q + 3));
  }

  k = _mm_set_epi64x(K4, K3);
  x0 = fold(x0, k, x1);
  x0 = fold(x0, k, x2);
  x0 = fold(x0, k, x3);
  for (; len >= 16; len -= 16, q++) x0 = fold(x0, k, _mm_loadu_si128(q));

  /* 128 to 64 bits: the low half times k4 into the high half, which
     also appends the 32 zero bits the CRC's definition multiplies by */
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k, 0x10), _mm_srli_si128(x0, 8));
  /* 64 to 32 bits */
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), _mm_set_epi64x(0, K5),
                           0x00),
      _mm_srli_si128(x0, 4));
  /* Barrett reduction of the remaining 64 bits */
  const __m128i pu = _mm_set_epi64x(MU, POLY);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pu, 0x00);
  return (uint32_t)_mm_extract_epi32(_mm_xor_si128(x0, t), 1);
}

static int hw_available(void)
{
  unsigned int eax, ebx, ecx, edx;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return 0;
  return (ecx & (1u << 1)) && (ecx & (1u << 19));
}

#else

static uint32_t crc_fold(uint32_t crc, const uint8_t *p, intnat len)
{
  (void)p;
  (void)len;
  return crc;
}

static int hw_available(void) { return 0; }

#endif

/* The state [crc] advanced over [len] bytes of [buf] from [pos]; the
   caller has bounds-checked the range, made [len] a multiple of 16 of
   at least 64, and checked [ipds_crc32_hw_available]. */
intnat ipds_crc32_fold(value buf, intnat pos, intnat len, intnat crc)
{
  return crc_fold((uint32_t)crc, Bytes_val(buf) + pos, len);
}

value ipds_crc32_fold_byte(value buf, value pos, value len, value crc)
{
  return Val_long(
      ipds_crc32_fold(buf, Long_val(pos), Long_val(len), Long_val(crc)));
}

value ipds_crc32_hw_available(value unit)
{
  (void)unit;
  return Val_bool(hw_available());
}
