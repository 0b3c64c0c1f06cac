"""Exact arithmetic over F_q, F_q[T], and precision-tracked truncated Laurent series.

Field elements are integer codes in [0, q): the base-p digit vector of an
element in the polynomial basis of the modulus, packed little-endian
(code = sum digits[i] * p**i).  All field arithmetic goes through tables
built once per FieldConfig, so q is capped at 256.

For p = 2 the code of a sum is the XOR of the codes: sums, products
(``_mul_rows``) and the E_n step (``difference_scan``) XOR ints; besides
this module only the code-string sums of ``transforms`` test ``cfg.p == 2``.
"""
from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction
from itertools import chain, product
from operator import mul
from typing import Iterable, NamedTuple, Union


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class PrecisionError(ValueError):
    """The requested digits are not determined by the known digits."""


class BudgetError(RuntimeError):
    """An enumeration or degree budget would be exceeded."""


class InexactDivisionError(ArithmeticError):
    """A division that must be exact left a remainder (internal inconsistency)."""


#: Precision marker for exactly known values.
EXACT = math.inf

MAX_Q = 256

# The one shipped modulus, little-endian coefficients.  Every other q with
# e > 1 takes the first irreducible monic polynomial (``_first_irreducible``),
# which for q = 25 is u^2 + 2: shipping u^2 + u + 1 keeps every q = 25
# output as it was.
DEFAULT_MODULI = {25: (1, 1, 1)}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _monic(code: int, d: int, p: int) -> tuple:
    """The monic polynomial of degree d over F_p whose lower coefficients
    are the base-p digits of ``code``, constant term first."""
    return tuple((code // p ** i) % p for i in range(d)) + (1,)


def _is_irreducible(m: tuple, p: int, fp: "FieldConfig" = None) -> bool:
    """Whether ``m`` (degree e >= 1) has no monic factor of degree 1..e//2
    over F_p, by trial division in F_p[u]; ``fp`` is F_p, built here when
    not given."""
    fp = fp or FieldConfig(p)
    m = Poly(fp, m)
    return all(m.divmod(Poly(fp, _monic(code, d, p)))[1].coeffs
               for d in range(1, m.degree // 2 + 1) for code in range(p ** d))


def _first_irreducible(p: int, e: int) -> tuple:
    """The first irreducible monic polynomial of degree e over F_p, in the
    order of ``_monic`` codes: the modulus of a q with none shipped."""
    fp = FieldConfig(p)
    return next(m for m in (_monic(code, e, p) for code in range(p ** e))
                if _is_irreducible(m, p, fp))


class FieldConfig:
    """The coefficient field F_q with q = p**e, backed by full lookup tables."""

    def __init__(self, p: int, e: int = 1, modulus: tuple = None):
        if not _is_prime(p):
            raise DomainError(f"p = {p} is not prime")
        if e < 1:
            raise DomainError("extension degree must be >= 1")
        q = p ** e
        if q > MAX_Q:
            raise DomainError(f"q = {q} exceeds the supported cap {MAX_Q}")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            if modulus is not None:
                raise DomainError(f"q = {q} is prime: a modulus is only used for e > 1")
            self.modulus = None
        else:
            if modulus is None:
                # Shipped or searched: irreducible already.
                modulus = DEFAULT_MODULI.get(q) or _first_irreducible(p, e)
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != e + 1 or modulus[-1] == 0:
                    raise DomainError("modulus must have degree e")
                if not _is_irreducible(modulus, p):
                    raise DomainError("modulus is reducible over F_p")
            self.modulus = modulus
        # What identifies the field, as a plain tuple: cache keys built on
        # it hash and compare without a call into this class.  Every
        # lru_cache lookup keyed on a config hashes it: hash once.
        self._key = (p, e, self.modulus)
        self._hash = hash(self._key)
        self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        self._digits = [tuple((c // p ** i) % p for i in range(e)) for c in range(q)]
        # Addition is digitwise mod p: the table over e digits from the one
        # over k < e digits, digit k the slowest-varying.
        add = [[0]]
        for k in range(e):
            s = p ** k
            add = [[lo + (ah + bh) % p * s for bh in range(p) for lo in add[al]]
                   for ah in range(p) for al in range(s)]
        self.add_table = add
        self.neg_table = [row.index(0) for row in add]
        if e == 1:
            self.mul_table = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            # Each row is F_p-linear in the column: with g = a u**i, the
            # columns b + k p**i (b < p**i, 0 < k < p) hold row[b] + k g.
            # g u shifts g's digits up one place and folds the top digit t
            # back in as t (u**e mod the modulus), the code u_e below.
            top = q // p
            u_e = sum((-c) % p * p ** i for i, c in enumerate(self.modulus[:e]))
            folds = [0]
            for _ in range(p - 1):
                folds.append(add[folds[-1]][u_e])

            def mul_row(a):
                row, g = [0], a
                for _ in range(e):
                    block, multiple = list(row), 0
                    for _ in range(p - 1):
                        multiple = add[multiple][g]
                        plus = add[multiple]
                        row += [plus[x] for x in block]
                    g = add[g % top * p][folds[g // top]]
                return row

            self.mul_table = [mul_row(a) for a in range(q)]
            # For Kronecker unpacking (``unpack`` below): for each base-p
            # code h of the e - 1 high sub-slots of a product, the code of
            # u**e * (sum h_t u**t) mod the modulus.
            self.fold_table = [self.mul_table[h][u_e] for h in range(p ** (e - 1))]
        self.inv_table = [None] + [row.index(1) for row in self.mul_table[1:]]
        # The same maps as 256-byte rows of ``bytes.translate``: mul_rows[c]
        # takes each code x to c x, neg_row takes it to -x, and pow_p_row
        # to x**p (the identity for e = 1).
        self.mul_rows = [bytes(row).ljust(256, b"\0") for row in self.mul_table]
        self.neg_row = bytes(self.neg_table).ljust(256, b"\0")
        self.pow_p_row = bytes(self.pow(x, p) for x in range(q)).ljust(256, b"\0")
        # Byte tables of pack and unpack, built by the first call at a width.
        self._slot_tables = {}

    # -- element arithmetic (int codes) ------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inversion of zero in F_q")
        return self.inv_table[a]

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out, base = 1, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    @property
    def neg_one(self) -> int:
        return self.neg_table[1]

    def sign(self, n: int) -> int:
        """(-1)**n as a field element."""
        return 1 if n % 2 == 0 else self.neg_one

    def elem_text(self, a: int) -> str:
        if self.e == 1:
            return str(a)
        terms = []
        for i in range(self.e - 1, -1, -1):
            d = self._digits[a][i]
            if d == 0:
                continue
            if i == 0:
                terms.append(str(d))
            else:
                base = "u" if i == 1 else f"u^{i}"
                terms.append(base if d == 1 else f"{d}{base}")
        return "+".join(terms) if terms else "0"

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldConfig) and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.e == 1:
            return f"FieldConfig(p={self.p})"
        return f"FieldConfig(p={self.p}, e={self.e}, modulus={self.modulus})"


def lucas_binom(a: int, b: int, p: int) -> int:
    """Binomial coefficient C(a, b) mod p by base-p digit products (Lucas).

    Returns an element of the prime subfield (an integer in [0, p)).
    """
    if a < 0 or b < 0:
        raise DomainError("lucas_binom requires non-negative arguments")
    out = 1
    while b:
        da, db = a % p, b % p
        if db > da:
            return 0
        out = (out * math.comb(da, db)) % p
        a //= p
        b //= p
    return out


def _add(cfg: FieldConfig, a: bytes, b: bytes):
    """The coefficientwise sum of ``a`` and ``b``, the longer one's tail
    kept: the one addition kernel of Poly and TruncSeries (an int XOR for
    p = 2)."""
    if cfg.p == 2:
        return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(
            max(len(a), len(b)), "little")
    if len(a) < len(b):
        a, b = b, a
    add = cfg.add_table
    out = [add[x][y] for x, y in zip(a, b)]
    out += a[len(b):]
    return out


def _spread(coeffs, s: int) -> bytearray:
    """``coeffs`` with coefficient i moved to index i * s: the Frobenius
    map x -> x**(q**m) on coefficients, for s = q**m."""
    out = bytearray(max((len(coeffs) - 1) * s + 1, 0))
    out[::s] = coeffs
    return out


def _shift(y, k):
    """T**k * y for k >= 0 (Poly or TruncSeries, as y is): y's codes moved
    up k places, a series' precision with them, with no product."""
    if isinstance(y, Poly):
        return Poly(y.cfg, bytes(k) + y.coeffs)
    return TruncSeries(y.cfg, y.v + k, y.coeffs, y.prec + k)


def _frobenius_stride(cfg: FieldConfig, m: int) -> int:
    """q**m, the ``_spread`` stride of x -> x**(q**m), for m >= 0."""
    if m < 0:
        raise DomainError(f"Frobenius power must be non-negative, got {m}")
    return cfg.q ** m


# ---------------------------------------------------------------------------
# Kronecker packing: sums of products as integer arithmetic
# ---------------------------------------------------------------------------

# array typecode by item width in bits: slots go to and from a Python int
# as one bytes copy.
_SLOT_TYPES = {array(t).itemsize * 8: t for t in "QLIHB"}


def slot_width(cfg: FieldConfig, terms: int, length: int) -> int:
    """Bits per slot for a sum of ``terms`` products of packed values, the
    shorter factor of each product having at most ``length`` coefficients.

    A slot of such a sum is at most terms * length * e * (p-1)**2 (for
    e > 1, up to e digit pairs meet in one sub-slot); the width is the
    least of 8, 16, 32 and 64 bits that holds that bound.
    """
    bound = terms * length * cfg.e * (cfg.p - 1) ** 2
    for width in (8, 16, 32, 64):
        if bound < 1 << width:
            return width
    raise BudgetError(f"packed slot bound {bound} exceeds 64 bits")


class _SlotTables(NamedTuple):
    """The byte tables of ``pack`` and ``unpack`` for one field and width."""

    digits: list  # per digit t < e: x -> digit t of the code x, as pack writes it
    planes: list  # (b, x -> x 256**b mod p) for each slot byte b of nonzero weight
    lane: int     # residues mod p one byte can sum without overflow
    mod_p: bytes  # x -> x mod p
    folds: list   # per digit s < e: (t, c) for the c != 0 of digit s of
                  # u**(e + t) mod the modulus, t < e - 1
    places: list  # per digit s < e: x -> (x mod p) p**s


def _slot_tables(cfg: FieldConfig, width: int) -> _SlotTables:
    """The byte tables of ``cfg`` at ``width``, built by the first call."""
    tables = cfg._slot_tables.get(width)
    if tables is None:
        p, e, item = cfg.p, cfg.e, width // 8

        def times(c):
            return bytes(x * c % p for x in range(256))

        fold_digits = [cfg._digits[cfg.fold_table[p ** t]] for t in range(e - 1)]
        tables = cfg._slot_tables[width] = _SlotTables(
            digits=[bytes(x // p ** t % p for x in range(256)) for t in range(e)],
            planes=[(b, times(pow(256, b, p))) for b in range(item) if pow(256, b, p)],
            lane=255 // (p - 1),
            mod_p=times(1),
            folds=[[(t, ds[s]) for t, ds in enumerate(fold_digits) if ds[s]]
                   for s in range(e)],
            places=[bytes(x % p * p ** s for x in range(256)) for s in range(e)])
    return tables


def pack(cfg: FieldConfig, coeffs, width: int) -> int:
    """A coefficient sequence as one int, by Kronecker substitution.

    For e = 1 coefficient i is the slot at bit width * i.  For e > 1 its e
    base-p digits fill the first e of 2e - 1 sub-slots, so the digit
    products of two coefficients (u-degree up to 2e - 2) stay inside their
    block.  A product of packed values, or a sum of such products, then
    holds the integer convolution of the digits slot by slot, with no carry
    while the bound of ``slot_width`` holds; ``unpack`` reads it back.  The
    int is read from a zeroed buffer into which the codes (e = 1), or each
    base-p digit of them (``bytes.translate``), are written as one strided
    slice; for e = 1 and one-byte slots that buffer is the codes themselves.
    ``coeffs`` is a byte string (``Poly.coeffs``) or any sequence of codes.
    """
    if cfg.e == 1 and width == 8:
        return int.from_bytes(coeffs, "little")
    item = width // 8
    step = (2 * cfg.e - 1) * item
    buf = bytearray(len(coeffs) * step)
    if cfg.e == 1:
        buf[::step] = coeffs
    else:
        codes = bytes(coeffs)
        for t, digit in enumerate(_slot_tables(cfg, width).digits):
            buf[t * item::step] = codes.translate(digit)
    return int.from_bytes(buf, "little")


def unpack(cfg: FieldConfig, value: int, width: int) -> bytes:
    """Coefficient codes of a packed value or sum of packed products.

    Each slot is reduced mod p; for e > 1 each block of 2e - 1 residues,
    a polynomial in u, is reduced mod the modulus.  The codes come as
    bytes (q <= 256) without trailing zeros.

    Every step works on whole byte strings: a slot of w / 8 bytes is
    reduced as the sum of its byte planes (every w / 8-th byte), each
    mapped by ``bytes.translate`` to its residue times 256**b mod p and
    added to the others as one int, with one byte per slot; for e > 1
    digit s of a block is its sub-slot s plus the high sub-slots times
    digit s of u**(e + t), summed the same way, and the code is the sum of
    the digits mapped to their place values.  Each byte lane must hold the
    sum of two residues, so for p > 128 (e = 1) the slots are reduced one
    by one.
    """
    p, e, item = cfg.p, cfg.e, width // 8
    block = 2 * e - 1
    count = -(-value.bit_length() // (width * block))  # blocks
    slots = count * block
    data = value.to_bytes(slots * item, "little")
    if p > 128:
        wide = array(_SLOT_TYPES[width])
        wide.frombytes(data)
        if sys.byteorder == "big":
            wide.byteswap()
        return bytes([s % p for s in wide]).rstrip(b"\0")
    tables = _slot_tables(cfg, width)
    mod_p = tables.mod_p
    if item == 1:
        res = data.translate(mod_p)
    else:
        acc = held = 0
        for b, times in tables.planes:
            if held == tables.lane:
                acc = int.from_bytes(acc.to_bytes(slots, "little").translate(mod_p),
                                     "little")
                held = 1
            acc += int.from_bytes(data[b::item].translate(times), "little")
            held += 1
        res = acc.to_bytes(slots, "little").translate(mod_p)
    if e == 1:
        return res.rstrip(b"\0")
    # Digit s is a residue plus at most e - 1 residues times c < p, at most
    # (p - 1) + (e - 1) (p - 1)**2 <= 156 (q = 169), and the place values
    # of a code sum to at most q - 1: neither leaves its byte.
    highs = [int.from_bytes(res[e + t::block], "little") for t in range(e - 1)]
    code = 0
    for s in range(e):
        digit = int.from_bytes(res[s::block], "little")
        for t, c in tables.folds[s]:
            digit += highs[t] * c
        code += int.from_bytes(
            digit.to_bytes(count, "little").translate(tables.places[s]), "little")
    return code.to_bytes(count, "little").rstrip(b"\0")


def packed_sums(cfg: FieldConfig, rows, cols, length=None):
    """For each row i and col j, row-major, the codes (``unpack``) of
    sum_m rows[i][m] * cols[j][m], every entry a coefficient sequence.

    Every sequence is packed once (once in all when ``cols`` is ``rows``),
    at the width ``slot_width`` gives for len(row) terms with at most
    ``length`` digit pairs to a slot (by default the lesser of the longest
    row and col entries); each sum is a sum of integer products, unpacked
    once.  Sums are formed as they are read.
    """
    length = length or min(max(map(len, chain.from_iterable(t))) for t in (rows, cols))
    width = slot_width(cfg, len(rows[0]), length)
    packed = [[pack(cfg, c, width) for c in row] for row in rows]
    cols = packed if cols is rows else [[pack(cfg, c, width) for c in col]
                                        for col in cols]
    for row in packed:
        for col in cols:
            yield unpack(cfg, sum(map(mul, row, col)), width)


# A product leaves the loop kernel for pack/unpack when its loop work, the
# nonzero coefficients of the shorter factor times the longer factor's
# length (both loops skip zero coefficients), exceeds this constant times
# the packed slot count (2e - 1) * (len a + len b).  One constant per class
# (p == 2, e > 1), as measured by ``scripts/mul_crossover.py --grid full``.
# The loop is the schoolbook one for odd p, which loses to Kronecker from
# ratio 0.73 on at e = 1 (e > 1 keeps the constant measured when q = 2
# shared the grid), and the row kernel for p = 2: at e = 1 it loses to
# Kronecker from ratio 2.05 on, and at e > 1 Kronecker was never more than
# 11% faster on any cell up to 8192 by 32768 coefficients, and up to 108
# times slower, so those products never pack and skip the size test.
KRONECKER_CROSSOVER = {(False, False): 0.73, (False, True): 1.20,
                       (True, False): 2.05, (True, True): math.inf}


def _mul(cfg: FieldConfig, a: bytes, b: bytes, size: int) -> bytes:
    """The first ``size`` coefficients of the product of the code strings
    ``a`` and ``b``, as ``size`` bytes: the one multiplication kernel of
    Poly and TruncSeries.  A product by the constant 1 is the other
    factor; dense long products take the Kronecker path (see
    KRONECKER_CROSSOVER), the rest the row kernel for p = 2 and the
    schoolbook loop for odd p.
    """
    a, b = a[:size], b[:size]
    if len(a) > len(b):
        a, b = b, a
    if a == b"\1":
        return b.ljust(size, b"\0")
    char2 = cfg.p == 2
    crossover = KRONECKER_CROSSOVER[char2, cfg.e > 1]
    if crossover < math.inf and (len(a) - a.count(0)) * len(b) > (
            crossover * (2 * cfg.e - 1) * (len(a) + len(b))):
        return _mul_kronecker(cfg, a, b, size)
    if char2:
        return _mul_rows(cfg, a, b, size)
    return _mul_schoolbook(cfg, a, b, size)


def _mul_rows(cfg: FieldConfig, a: bytes, b: bytes, size: int) -> bytes:
    """``_mul`` for p = 2: ``b`` scaled once per distinct nonzero code x of
    ``a`` (translated by ``mul_rows[x]``), read as an int, is XORed in at
    each place of x; ``a`` is the shorter factor, as ``_mul`` passes it."""
    rows, scaled, acc = cfg.mul_rows, {}, 0
    for i, x in enumerate(a):
        if x:
            row = scaled.get(x)
            if row is None:
                row = scaled[x] = int.from_bytes(b.translate(rows[x]), "little")
            acc ^= row << 8 * i
    return (acc & ((1 << 8 * size) - 1)).to_bytes(size, "little")


def _mul_schoolbook(cfg: FieldConfig, a, b, size: int) -> bytes:
    """``_mul`` by the double loop over the nonzero coefficients of ``a``;
    pairs (i, j) with i + j >= size are never visited.  As in
    ``_mul_kronecker``, ``a`` is the shorter factor and neither factor is
    longer than ``size``: ``_mul`` cuts and orders them."""
    out = [0] * size
    add, mul = cfg.add_table, cfg.mul_table
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            for j, y in enumerate(b[:size - i], i):
                if y:
                    out[j] = add[out[j]][row[y]]
    return bytes(out)


def _mul_kronecker(cfg: FieldConfig, a, b, size: int) -> bytes:
    """``_mul`` as one integer product of the packed factors, cut to its
    first ``size`` coefficient slots before unpacking, so the digits past
    a truncation are never read back.  The slot width follows ``a``, the
    shorter factor (``_mul`` cuts and orders the factors)."""
    width = slot_width(cfg, 1, len(a))
    packed = pack(cfg, a, width) * pack(cfg, b, width)
    packed &= (1 << width * (2 * cfg.e - 1) * size) - 1
    return unpack(cfg, packed, width).ljust(size, b"\0")


def product_sums(cfg: FieldConfig, left, right, terms: int):
    """The map from weights [(i, w), ...], w in [0, p) read in F_p, to the
    codes of sum w left[i] right[i], without trailing zeros; each product
    of code strings is formed once.  For p = 2 it is ``_mul``'s, as an
    int, and a sum XORs those of odd weight.  For odd p the factors are
    packed at the width ``slot_width`` gives for ``terms`` (which bounds
    the weights of a sum) and the longest shorter factor, and a sum is
    unpacked once."""
    char2 = cfg.p == 2
    width = 0 if char2 else slot_width(
        cfg, terms, max(map(min, map(len, left), map(len, right)), default=0))
    products = [int.from_bytes(_mul(cfg, a, b, len(a) + len(b)), "little") if char2
                else pack(cfg, a, width) * pack(cfg, b, width)
                for a, b in zip(left, right)]

    def weighted_sum(weights):
        if not char2:
            return unpack(cfg, sum(w * products[i] for i, w in weights), width)
        acc = 0
        for i, w in weights:
            if w & 1:
                acc ^= products[i]
        return acc.to_bytes((acc.bit_length() + 7) // 8, "little")
    return weighted_sum


def difference_scan(cfg: FieldConfig, codes: bytes, v: int, size: int,
                    span: int) -> bytes:
    """The first ``size`` codes, without trailing zeros, of
    (y - y**q) / T * (1 + T**span + T**(2 span) + ...) for
    y = T**v sum codes[i] T**i, v >= 0: the E_n step's quotient.  The
    prefix sum is a doubling scan, acc += acc << (span 2**r coefficients).
    For p = 2 the codes are the ints and every sum an XOR.  For odd p, y
    and -y**q are packed, one byte per slot (two for p > 128), and
    ``unpack``/``pack`` reduce the slots before a doubling could
    overflow one."""
    q = cfg.q
    raised = codes[:max(size // q + 1 - v, 0)]  # the digits of y**q kept
    if cfg.p == 2:
        acc = ((int.from_bytes(codes, "little") << 8 * v)
               ^ (int.from_bytes(_spread(raised, q), "little") << 8 * q * v)) >> 8
        mask = (1 << 8 * size) - 1
        while span < size:
            acc ^= (acc << 8 * span) & mask
            span *= 2
        return acc.to_bytes((acc.bit_length() + 7) // 8, "little")
    width = 8 if cfg.p <= 128 else 16
    bits = (2 * cfg.e - 1) * width  # per coefficient
    acc = ((pack(cfg, codes, width) << v * bits)
           + (pack(cfg, _spread(raised.translate(cfg.neg_row), q), width)
              << q * v * bits)) >> bits
    # Slot sums of `held` residues each: reduce before a doubling overflows.
    held = 2
    mask = (1 << size * bits) - 1
    while span < size:
        if 2 * held * (cfg.p - 1) >= 1 << width:
            acc, held = pack(cfg, unpack(cfg, acc, width), width), 1
        acc += (acc << span * bits) & mask
        held, span = 2 * held, 2 * span
    return unpack(cfg, acc, width)


# ---------------------------------------------------------------------------
# Polynomials over F_q
# ---------------------------------------------------------------------------

class Poly:
    """Dense polynomial in T over F_q, normalized (no trailing zero coefficient).

    ``coeffs`` holds the coefficient codes, constant term first, as
    ``bytes`` (every code fits a byte, as q <= 256); the constructor takes
    any iterable of codes.  The zero polynomial has degree -1 (sentinel).
    """

    __slots__ = ("cfg", "coeffs")

    def __init__(self, cfg: FieldConfig, coeffs: Iterable[int] = b""):
        self.cfg = cfg
        self.coeffs = bytes(coeffs).rstrip(b"\0")

    @classmethod
    def zero(cls, cfg):
        return cls(cfg)

    @classmethod
    def one(cls, cfg):
        return cls(cfg, b"\1")

    @classmethod
    def constant(cls, cfg, c: int):
        return cls(cfg, c.to_bytes(1, "little"))

    @classmethod
    def monomial(cls, cfg, k: int, c: int = 1):
        if k < 0:
            raise DomainError("Poly exponents must be non-negative")
        return cls(cfg, bytes(k) + c.to_bytes(1, "little"))

    @classmethod
    def T(cls, cfg):
        return cls.monomial(cfg, 1)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def valuation(self):
        if not self.coeffs:
            return None
        return len(self.coeffs) - len(self.coeffs.lstrip(b"\0"))

    def coeff(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other):
        if isinstance(other, TruncSeries):
            return self.to_series() + other
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.cfg, _add(self.cfg, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.cfg, self.coeffs.translate(self.cfg.neg_row))

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, TruncSeries):
                return self.to_series() * other
            return NotImplemented
        if not (self.coeffs and other.coeffs):
            return Poly(self.cfg)
        size = len(self.coeffs) + len(other.coeffs) - 1
        return Poly(self.cfg, _mul(self.cfg, self.coeffs, other.coeffs, size))

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative polynomial power")
        return _power(self, k) if k else Poly.one(self.cfg)

    def scalar_mul(self, c: int):
        cfg = self.cfg
        if c == 0:
            return Poly.zero(cfg)
        return Poly(cfg, self.coeffs.translate(cfg.mul_rows[c]))

    def divmod(self, other: "Poly"):
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        cfg = self.cfg
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(cfg), self
        quot = [0] * (dq + 1)
        inv_lead = cfg.inv(other.coeffs[-1])
        add, mul = cfg.add_table, cfg.mul_table
        neg_other = [cfg.neg_table[b] for b in other.coeffs]
        for shift in range(dq, -1, -1):
            lead = rem[shift + other.degree]
            if lead:
                factor = quot[shift] = mul[lead][inv_lead]
                row = mul[factor]
                for i, b in enumerate(neg_other, shift):
                    rem[i] = add[rem[i]][row[b]]
        return Poly(cfg, quot), Poly(cfg, rem)

    def exact_div(self, other: "Poly"):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise InexactDivisionError(
                f"division of {self} by {other} left remainder {r}")
        return q

    def frobenius(self, m: int = 1):
        """Raise to the q**m power: exponents scale by q**m, coefficients fixed."""
        return Poly(self.cfg, _spread(self.coeffs, _frobenius_stride(self.cfg, m)))

    def to_series(self, prec=EXACT) -> "TruncSeries":
        return TruncSeries(self.cfg, 0, self.coeffs, prec)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return other == self
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and (self.cfg is other.cfg or self.cfg == other.cfg))

    def __hash__(self):
        # Equal polynomials have equal codes; bytes cache their own hash.
        return hash(self.coeffs)

    def text(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c:
                terms.append(_term_text(self.cfg, c, k))
        return "+".join(terms)

    __str__ = text

    def __repr__(self):
        return f"Poly({self.text()!r})"


def _power(x, k: int):
    """x**k for k >= 1 by binary powering: starts from the lowest set bit's
    power and stops squaring at the top bit, so x**1 takes no product and
    x**k at most 2 * (k.bit_length() - 1)."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def _term_text(cfg: FieldConfig, c: int, k: int) -> str:
    ct = cfg.elem_text(c)
    if cfg.e > 1 and ("+" in ct):
        ct = f"({ct})"
    if k == 0:
        return ct
    base = "T" if k == 1 else f"T^{k}"
    return base if c == 1 else f"{ct}*{base}"


def parse_poly(cfg: FieldConfig, text: str) -> Poly:
    """Parse the canonical polynomial text form (prime-field coefficients only).

    Accepts terms like ``T^4``, ``2*T``, ``3``, joined by ``+`` or ``-``,
    with ``T`` or ``u`` as the variable letter.
    """
    coeffs = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if not term:
            continue
        negate = term.startswith("-")
        head, var, tail = term[negate:].replace("u", "T").partition("T")
        try:
            if not var:
                c, k = int(head), 0
            elif tail and not tail.startswith("^"):
                raise ValueError(tail)
            else:
                c = int(head.rstrip("*")) if head else 1
                k = int(tail[1:]) if tail else 1
        except ValueError:
            raise DomainError(f"cannot read polynomial term {term!r}; terms are "
                              "like T^4, 2*T or 3, joined by + or -") from None
        c %= cfg.p
        if negate:
            c = cfg.neg(c)
        coeffs[k] = cfg.add(coeffs.get(k, 0), c)
    deg = max(coeffs) if coeffs else 0
    return Poly(cfg, (coeffs.get(i, 0) for i in range(deg + 1)))


def poly_enumerate(cfg: FieldConfig, n: int, variant: str = "deg_lt",
                   budget: int = None):
    """All polynomials of degree < n, or all monic polynomials of degree n.

    Lexicographic coefficient order, constant term fastest-varying; both
    variants yield exactly q**n polynomials.
    """
    if n < 0:
        raise DomainError("n must be non-negative")
    if variant not in ("deg_lt", "monic_deg_eq"):
        raise DomainError(f"unknown enumeration variant {variant!r}")
    count = cfg.q ** n
    if budget is not None and count > budget:
        raise BudgetError(
            f"enumeration needs {count} polynomials, budget is {budget}")
    top = (1,) if variant == "monic_deg_eq" else ()
    return [Poly(cfg, digits[::-1] + top)
            for digits in product(range(cfg.q), repeat=n)]


# ---------------------------------------------------------------------------
# Truncated Laurent series
# ---------------------------------------------------------------------------

Value = Union[Poly, "TruncSeries"]


class TruncSeries:
    """Laurent series over F_q known up to a stated precision exponent.

    Every coefficient of T**i with i < prec is known; coeffs stores the
    nonzero window starting at the valuation v, as ``bytes`` of codes like
    ``Poly.coeffs``.  prec = EXACT (infinity) marks an exactly known
    Laurent polynomial.  Empty coeffs means "zero to precision prec"
    (exactly zero when prec == EXACT).
    """

    __slots__ = ("cfg", "v", "coeffs", "prec")

    def __init__(self, cfg: FieldConfig, v: int, coeffs: Iterable[int], prec):
        coeffs = bytes(coeffs)
        if prec != EXACT:
            prec = int(prec)
            if len(coeffs) > prec - v:
                coeffs = coeffs[:max(prec - v, 0)]
        if coeffs and not (coeffs[0] and coeffs[-1]):
            # The nonzero window: v moves past the leading zeros.
            window = coeffs.lstrip(b"\0")
            v += len(coeffs) - len(window)
            coeffs = window.rstrip(b"\0")
        self.cfg = cfg
        self.v = v if coeffs else 0
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero(cls, cfg, prec=EXACT):
        return cls(cfg, 0, b"", prec)

    @classmethod
    def monomial(cls, cfg, k: int, c: int = 1, prec=EXACT):
        return cls(cfg, k, c.to_bytes(1, "little"), prec)

    @property
    def is_zero_to_prec(self) -> bool:
        return not self.coeffs

    @property
    def valuation(self):
        """Least exponent with a nonzero known coefficient; None if zero so far."""
        return self.v if self.coeffs else None

    def _eff_v(self):
        # Lower bound on the valuation, usable even for zero-to-precision.
        return self.v if self.coeffs else self.prec

    def coeff(self, i: int) -> int:
        if i >= self.prec:
            raise PrecisionError(f"coefficient of T^{i} unknown past prec {self.prec}")
        if self.coeffs and self.v <= i < self.v + len(self.coeffs):
            return self.coeffs[i - self.v]
        return 0

    def truncate(self, prec) -> "TruncSeries":
        if prec > self.prec:
            raise PrecisionError("cannot raise precision by truncation")
        return TruncSeries(self.cfg, self.v, self.coeffs, prec)

    def __add__(self, other):
        if isinstance(other, Poly):
            other = other.to_series()
        if not isinstance(other, TruncSeries):
            return NotImplemented
        cfg = self.cfg
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return TruncSeries(cfg, other.v, other.coeffs, prec)
        if not other.coeffs:
            return TruncSeries(cfg, self.v, self.coeffs, prec)
        lo = min(self.v, other.v)
        a = bytes(self.v - lo) + self.coeffs
        b = bytes(other.v - lo) + other.coeffs
        return TruncSeries(cfg, lo, _add(cfg, a, b), prec)

    def __neg__(self):
        return TruncSeries(self.cfg, self.v, self.coeffs.translate(self.cfg.neg_row),
                           self.prec)

    def __sub__(self, other):
        if isinstance(other, Poly):
            other = other.to_series()
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = other.to_series()
        if not isinstance(other, TruncSeries):
            return NotImplemented
        cfg = self.cfg
        prec = min(self.prec + other._eff_v(), other.prec + self._eff_v())
        if not self.coeffs or not other.coeffs:
            return TruncSeries(cfg, 0, b"", prec)
        lo = self.v + other.v
        size = len(self.coeffs) + len(other.coeffs) - 1
        if prec != EXACT:
            size = max(min(size, prec - lo), 0)
        return TruncSeries(cfg, lo, _mul(cfg, self.coeffs, other.coeffs, size), prec)

    def __pow__(self, k: int):
        if k < 0:
            raise DomainError("negative series power; use invert_unit")
        return _power(self, k) if k else TruncSeries.monomial(self.cfg, 0)

    def scalar_mul(self, c: int):
        cfg = self.cfg
        if c == 0:
            return TruncSeries.zero(cfg)
        return TruncSeries(cfg, self.v, self.coeffs.translate(cfg.mul_rows[c]),
                           self.prec)

    def frobenius(self, m: int = 1) -> "TruncSeries":
        """Raise to the q**m power: exponent i maps to i*q**m, coefficients fixed."""
        s = _frobenius_stride(self.cfg, m)
        return TruncSeries(self.cfg, self.v * s, _spread(self.coeffs, s), self.prec * s)

    def invert_unit(self, prec=None) -> "TruncSeries":
        """Multiplicative inverse; output precision is prec(x) - 2*v(x).

        Exact inputs need an explicit target ``prec`` for the result.
        """
        if not self.coeffs:
            raise DomainError("cannot invert a value that is zero to precision")
        cfg, v = self.cfg, self.v
        if self.prec == EXACT:
            if prec is None:
                raise PrecisionError("inverting an exact value needs a target precision")
            out_prec = prec
        else:
            out_prec = self.prec - 2 * v
            if prec is not None:
                out_prec = min(out_prec, prec)
        n_rel = out_prec + v  # digits of the unit-part reciprocal
        if n_rel <= 0:
            raise PrecisionError("insufficient precision to invert")
        u = [self.coeffs[k] if k < len(self.coeffs) else 0 for k in range(n_rel)]
        r0 = cfg.inv(u[0])
        r = [r0]
        for k in range(1, n_rel):
            acc = 0
            for j in range(1, k + 1):
                if u[j]:
                    acc = cfg.add(acc, cfg.mul(u[j], r[k - j]))
            r.append(cfg.neg(cfg.mul(r0, acc)))
        return TruncSeries(cfg, -v, r, out_prec)

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = other.to_series()
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.coeffs == other.coeffs and self.v == other.v
                and self.prec == other.prec
                and (self.cfg is other.cfg or self.cfg == other.cfg))

    def __hash__(self):
        # Equal series have equal codes; bytes cache their own hash.
        return hash((self.v, self.coeffs, self.prec))

    def matches(self, other) -> bool:
        """Digitwise agreement below the smaller of the two precisions."""
        return not (self - other).coeffs

    def text(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(_term_text(self.cfg, c, self.v + i))
        body = "+".join(terms)
        if self.prec == EXACT:
            return body or "0"
        tail = f"O(T^{self.prec})"
        return f"{body}+{tail}" if body else tail

    __str__ = text

    def __repr__(self):
        return f"TruncSeries({self.text()!r})"


class Norm(NamedTuple):
    v: object          # valuation (int), or None for zero
    value: Fraction    # |x| = q**-v, or an upper bound
    is_bound: bool     # True when only "zero to precision" is known


def valuation_norm(x: Value) -> Norm:
    """Valuation and absolute value |x| = q**-v(x); |0| = 0 by convention.

    A series that is zero to precision N reports the upper bound q**-N.
    """
    if isinstance(x, Poly):
        v = x.valuation
        if v is None:
            return Norm(None, Fraction(0), False)
        return Norm(v, _abs_from_v(x.cfg.q, v), False)
    if x.coeffs:
        return Norm(x.v, _abs_from_v(x.cfg.q, x.v), False)
    if x.prec == EXACT:
        return Norm(None, Fraction(0), False)
    return Norm(None, _abs_from_v(x.cfg.q, x.prec), True)


def _abs_from_v(q: int, v: int) -> Fraction:
    return Fraction(1, q ** v) if v >= 0 else Fraction(q ** (-v))


def as_series(x: Value, prec=EXACT) -> TruncSeries:
    if isinstance(x, Poly):
        return x.to_series(prec)
    return x


def values_match(a: Value, b: Value) -> bool:
    """Equality of two values on their commonly known digits."""
    if isinstance(a, Poly) and isinstance(b, Poly):
        return a == b
    return as_series(a).matches(as_series(b))


# ---------------------------------------------------------------------------
# Seeded sampling helpers (used by identity checks and tests)
# ---------------------------------------------------------------------------

def random_poly(cfg: FieldConfig, rng, max_deg: int, nonzero: bool = False) -> Poly:
    while True:
        p = Poly(cfg, (rng.randrange(cfg.q) for _ in range(max_deg + 1)))
        if not (nonzero and p.is_zero):
            return p


def random_series(cfg: FieldConfig, rng, prec: int, min_exp: int = 0) -> TruncSeries:
    return TruncSeries(cfg, min_exp,
                       (rng.randrange(cfg.q) for _ in range(prec - min_exp)), prec)
