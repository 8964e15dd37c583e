/* The event bits of a protocol-v2 [Branch_events] payload.

   Two kernels over the flat batch layout of [Protocol.batch]: event
   [i]'s op at [ev.(2i)] (0 call, 1 ret, 2 branch taken, 3 not taken)
   and its argument at [ev.(2i+1)] (a callee index, the branch pc, 0 for
   a ret).  [ipds_wire_pack] writes the event bits of such an array,
   [ipds_wire_unpack] reads them back into one.  On the wire an event
   is its 2-bit op, then for a call the varint of its index and for a
   branch the zigzag varint of pc - previous branch pc, modulo 2^63; a
   varint is 7-bit groups, low first, each in an 8-bit field whose top
   bit marks a following group, at most nine groups.  Bits are packed
   low first into bytes; protocol.mli has the whole payload layout.

   Arithmetic is on OCaml's 63-bit ints: a pc read from the array is
   sign-extended from bit 62, differences and sums keep their low 63
   bits, and [Val_long] drops bit 63 on the way back.

   Both kernels read and write only the caller's bytes and int array,
   and store only immediates into the array (no write barrier is due
   for an immediate over an immediate): they allocate nothing and never
   enter the runtime, so they are bound [@@noalloc] with untagged ints
   and any number of domains may call them at once. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

#define LOW63 0x7FFFFFFFFFFFFFFFULL

static inline uint64_t load64_le(const uint8_t *p)
{
  uint64_t v;
  memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

static inline void store64_le(uint8_t *p, uint64_t v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  memcpy(p, &v, 8);
}

/* {1 Pack}

   The pending bits live in [acc], [nb] of them, fewer than 40 before
   a field of at most 24 bits is added; at 40 five whole bytes are due,
   written with one 8-byte store whose tail the next store overwrites.
   So the caller guarantees 8 bytes of room past the payload's last
   byte: [event_room * n + 8] from [pos].  An event whose varint takes
   one or two groups (every branch delta under 2^13 either way, every
   callee index under 16 384) is one field of its op and its groups;
   a longer varint follows its op group by group. */

#define PUT(bits, width)                  \
  do {                                    \
    acc |= (uint64_t)(bits) << nb;        \
    nb += (width);                        \
    if (nb >= 40) {                       \
      store64_le(out, acc);               \
      out += 5;                           \
      acc >>= 40;                         \
      nb -= 40;                           \
    }                                     \
  } while (0)

/* The event bits of [ev]'s first [n] events into [body] from byte
   [pos], the last byte zero-padded; returns the position just past
   them. */
intnat ipds_wire_pack(value ev, intnat n, value body, intnat pos)
{
  uint8_t *out = Bytes_val(body) + pos;
  uint64_t acc = 0, prev = 0;
  int nb = 0;
  for (intnat i = 0; i < n; i++) {
    uint64_t op = (uint64_t)Long_val(Field(ev, 2 * i));
    uint64_t arg = (uint64_t)Long_val(Field(ev, 2 * i + 1));
    if (op == 1) {
      PUT(1, 2);
      continue;
    }
    uint64_t v = arg;
    if (op != 0) {
      /* zigzag of the 63-bit difference: 0, -1, 1, -2, ... */
      uint64_t d = arg - prev;
      uint64_t sign = ((d >> 62) & 1) ? ~0ULL : 0;
      v = ((d << 1) ^ sign) & LOW63;
      prev = arg;
    }
    if (v < (1ULL << 7)) {
      PUT(op | (v << 2), 10);
    } else if (v < (1ULL << 14)) {
      PUT(op | (((v & 0x7F) | 0x80) << 2) | ((v >> 7) << 10), 18);
    } else {
      PUT(op, 2);
      for (;;) {
        uint64_t rest = v >> 7;
        PUT((v & 0x7F) | (rest ? 0x80 : 0), 8);
        if (!rest) break;
        v = rest;
      }
    }
  }
  for (; nb > 0; nb -= 8, acc >>= 8) *out++ = (uint8_t)acc;
  return (intnat)(out - Bytes_val(body));
}

value ipds_wire_pack_byte(value ev, value n, value body, value pos)
{
  return Val_long(ipds_wire_pack(ev, Long_val(n), body, Long_val(pos)));
}

/* {1 Unpack}

   [nb] bits of [acc] are the next bits of the payload; the bits above
   them are zero or the payload's own later bits, so OR-ing a reload
   over them is harmless.  Each event starts with a top-up: below 18
   bits, while [p + 8 <= limit], one 8-byte load fills [acc] to 56–63
   bits.  With 18 bits in hand, a ret, or a call or branch whose varint
   ends within two groups, is decoded from [acc] at once.  Anything
   else (a longer varint, or an event among the last bytes) goes field
   by field: a refill below [need] bits loads eight bytes and keeps
   seven when [p + 8 <= limit], else one byte, and a field runs past
   the end exactly when no byte is left at a refill it needs.  [nb] < 8
   at every such refill, so the accumulator never loses a bit it has
   not consumed. */

enum { UNPACK_OK = 0, UNPACK_PAST_END = 1, UNPACK_VARINT_TOO_LONG = 2,
       UNPACK_BAD_CALLEE = 3 };

#define REFILL(need)                                        \
  do {                                                      \
    if (nb < (need)) {                                      \
      if (p + 8 <= limit) {                                 \
        acc |= load64_le(b + p) << nb;                      \
        p += 7;                                             \
        nb += 56;                                           \
      } else {                                              \
        if (p >= limit) return UNPACK_PAST_END;             \
        acc |= (uint64_t)b[p] << nb;                        \
        p++;                                                \
        nb += 8;                                            \
      }                                                     \
    }                                                       \
  } while (0)

/* [n] events from byte [p] of [buf], up to [limit], into [ev] (room for
   [n] events), checking each call's index against the [k] names.
   Returns the first refusal in payload order, [UNPACK_OK] if none. */
intnat ipds_wire_unpack(value ev, value buf, intnat p, intnat limit, intnat n,
                        intnat k)
{
  const uint8_t *b = Bytes_val(buf);
  uint64_t acc = 0, prev = 0;
  int nb = 0;
  for (intnat i = 0; i < n; i++) {
    if (nb < 18 && p + 8 <= limit) {
      /* whole bytes only: 56 + (nb mod 8) bits after */
      acc |= load64_le(b + p) << nb;
      p += (63 - nb) >> 3;
      nb |= 56;
    }
    uint64_t op, v;
    if (nb >= 18) {
      op = acc & 3;
      uint64_t g0 = (acc >> 2) & 0xFF, g1 = (acc >> 10) & 0xFF;
      if (op == 1) {
        acc >>= 2;
        nb -= 2;
        v = 0;
        goto decoded;
      }
      if (!(g0 & 0x80)) {
        v = g0;
        acc >>= 10;
        nb -= 10;
        goto decoded;
      }
      if (!(g1 & 0x80)) {
        v = (g0 & 0x7F) | (g1 << 7);
        acc >>= 18;
        nb -= 18;
        goto decoded;
      }
    }
    REFILL(2);
    op = acc & 3;
    acc >>= 2;
    nb -= 2;
    v = 0;
    if (op != 1) {
      for (int shift = 0;; shift += 7) {
        REFILL(8);
        uint64_t g = acc & 0xFF;
        acc >>= 8;
        nb -= 8;
        v |= (g & 0x7F) << shift;
        if (!(g & 0x80)) break;
        if (shift == 56) return UNPACK_VARINT_TOO_LONG;
      }
    }
  decoded:;
    uint64_t arg = 0;
    if (op == 0) {
      /* an index with bit 62 set is a negative OCaml int */
      if (v >= (uint64_t)k) return UNPACK_BAD_CALLEE;
      arg = v;
    } else if (op != 1) {
      prev += (v >> 1) ^ (0 - (v & 1));
      arg = prev;
    }
    Field(ev, 2 * i) = Val_long((intnat)op);
    Field(ev, 2 * i + 1) = Val_long((intnat)arg);
  }
  return UNPACK_OK;
}

value ipds_wire_unpack_byte(value *argv, int argn)
{
  (void)argn;
  return Val_long(ipds_wire_unpack(argv[0], argv[1], Long_val(argv[2]),
                                   Long_val(argv[3]), Long_val(argv[4]),
                                   Long_val(argv[5])));
}
