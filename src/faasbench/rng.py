"""numpy's seeded random streams, drawn with the standard library.

A run draws every id, duration and arrival from three streams that
``SeedSequence(seed).spawn(3)`` seeds, each a PCG64 ``Generator``, and it
calls five of the generator's methods: ``bytes``, ``random``, ``uniform``,
``normal`` and ``exponential``. This module computes each of them exactly as
numpy's ``numpy.random.default_rng`` does, bit for bit, so a seed's
``raw.log`` is the one numpy's streams write, and a run never imports numpy,
whose ``numpy.random`` took more time and memory to load than the rest of a
small run's set-up. ``tests/test_rng.py`` checks every method against numpy
2.4.6.

* ``SeedSequence`` is numpy's entropy pool: the seed's and spawn key's 32-bit
  words hashed into four pool words, which ``generate_state`` hashes out
  again.
* The bit generator is PCG64 (O'Neill 2014), the XSL-RR 128/64 variant with
  numpy's multiplier, seeded from eight ``generate_state`` words: the state
  is the LCG ``s = s * MULT + inc`` modulo 2**128, stepped before each
  output; an output is the xor of the state's halves rotated right by the
  state's top six bits.
* ``random`` is the top 53 bits of one output over 2**53; ``uniform`` and the
  scaled ``normal`` and ``exponential`` are numpy's ``distributions.c``
  formulas, term for term, so each rounds as numpy's does.
* ``normal`` and ``exponential`` are numpy's ziggurat samplers (Marsaglia &
  Tsang 2000), with its 256-entry tables, which ``_ziggurat`` holds as
  read from numpy's compiled code and the first ``Generator`` decodes; the
  rare wedge and tail branches call ``math.exp`` and ``math.log1p``, the C
  library functions numpy calls.
* ``bytes(n)`` is numpy's: ``n`` bytes of little-endian 32-bit words, each
  the low, then the high half of one output, with a half left over kept for
  the next ``bytes`` call (the other methods draw whole outputs and leave it
  alone). Like numpy's, ``bytes(0)`` draws one word.
"""

from __future__ import annotations

import itertools
import math
import struct

from . import _ziggurat

MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF
MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16

# PCG64's default 128-bit multiplier
PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
# x * ROTATE_SPREAD is x beside a copy of itself, so a right shift of it by r
# brings x rotated right by r into the low 64 bits
ROTATE_SPREAD = (1 << 64) | 1
MASK52 = (1 << 52) - 1
MASK53 = (1 << 53) - 1
DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2**-53

ZIGGURAT_NOR_R = 3.6541528853610087963519472518
ZIGGURAT_NOR_INV_R = 0.27366123732975827203338247596
ZIGGURAT_EXP_R = 7.6971174701310497140446280481


def _table(name: str) -> tuple:
    return struct.unpack("<256" + ("Q" if name[0] == "k" else "d"), bytes.fromhex(getattr(_ziggurat, name)))


# the ziggurat tables, decoded when the first Generator is built: a process
# that only analyzes a log builds none
KI = WI = FI = KE = WE = FE = None


def _decode_tables() -> None:
    global KI, WI, FI, KE, WE, FE
    KI, WI, FI = _table("ki_double"), _table("wi_double"), _table("fi_double")
    KE, WE, FE = _table("ke_double"), _table("we_double"), _table("fe_double")


def _words32(n: int) -> list[int]:
    """The 32-bit words of a nonnegative int, least significant first; 0 is [0]."""
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


class SeedSequence:
    """numpy's ``SeedSequence`` for an int seed and a spawn key, with the
    default pool of four words."""

    def __init__(self, entropy: int, spawn_key: tuple[int, ...] = ()):
        if entropy < 0:
            raise ValueError("the seed must be nonnegative")
        self.entropy = entropy
        self.spawn_key = spawn_key
        self.n_children_spawned = 0
        run = _words32(entropy)
        spawn = [w for k in spawn_key for w in _words32(k)]
        if spawn and len(run) < POOL_SIZE:
            run += [0] * (POOL_SIZE - len(run))  # a spawned key never reads as a longer seed
        self.pool = self._mix(run + spawn)

    @staticmethod
    def _mix(entropy: list[int]) -> list[int]:
        hash_const = INIT_A

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * MULT_A & MASK32
            value = value * hash_const & MASK32
            return value ^ value >> XSHIFT

        def mix(x: int, y: int) -> int:
            result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
            return result ^ result >> XSHIFT

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
        # every pool word into every other, so late words reach the early ones
        for i_src in range(POOL_SIZE):
            for i_dst in range(POOL_SIZE):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in entropy[POOL_SIZE:]:
            for i_dst in range(POOL_SIZE):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        return pool

    def generate_state(self, n_words: int) -> list[int]:
        """``n_words`` 32-bit words of state hashed out of the pool."""
        hash_const = INIT_B
        out = []
        for word in itertools.islice(itertools.cycle(self.pool), n_words):
            word ^= hash_const
            hash_const = hash_const * MULT_B & MASK32
            word = word * hash_const & MASK32
            out.append(word ^ word >> XSHIFT)
        return out

    def spawn(self, n_children: int) -> list[SeedSequence]:
        """The next ``n_children`` child sequences: this one's entropy, its
        spawn key extended by each child's index."""
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        return [SeedSequence(self.entropy, self.spawn_key + (i,)) for i in range(start, start + n_children)]


class Generator:
    """numpy's ``default_rng(seed_seq)``: a PCG64 ``Generator``, with the five
    methods a run calls. Each method steps the state inline, which is most of
    its cost."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed_seq: SeedSequence):
        if KI is None:
            _decode_tables()
        w = seed_seq.generate_state(8)
        # four little-endian 64-bit words: the initial state's high and low
        # halves, then the stream selector's
        initstate = (w[2] | w[3] << 32) | (w[0] | w[1] << 32) << 64
        initseq = (w[6] | w[7] << 32) | (w[4] | w[5] << 32) << 64
        self._inc = (initseq << 1 | 1) & MASK128
        # numpy's srandom: from state 0 step (to inc), add initstate, step
        self._state = ((self._inc + initstate) * PCG_MULT + self._inc) & MASK128
        self._half: int | None = None  # the high half of an output that bytes() has not used

    def random(self) -> float:
        s = self._state = (self._state * PCG_MULT + self._inc) & MASK128
        return ((((s >> 64 ^ s) & MASK64) * ROTATE_SPREAD >> ((s >> 122) + 11)) & MASK53) * DOUBLE_UNIT

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        s = self._state = (self._state * PCG_MULT + self._inc) & MASK128
        return low + (high - low) * (((((s >> 64 ^ s) & MASK64) * ROTATE_SPREAD >> ((s >> 122) + 11)) & MASK53)
                                     * DOUBLE_UNIT)

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        while True:
            s = self._state = (self._state * PCG_MULT + self._inc) & MASK128
            # the output above its low 64 bits is masked off by every use
            r = ((s >> 64 ^ s) & MASK64) * ROTATE_SPREAD >> (s >> 122)
            idx = r & 0xFF
            rabs = r >> 9 & MASK52
            x = rabs * WI[idx]
            if r & 0x100:
                x = -x
            if rabs < KI[idx]:
                return loc + scale * x  # 99.3% of draws
            if idx == 0:  # the tail beyond ZIGGURAT_NOR_R
                while True:
                    xx = -ZIGGURAT_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return loc + scale * (-(ZIGGURAT_NOR_R + xx) if rabs >> 8 & 1 else ZIGGURAT_NOR_R + xx)
            if (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] < math.exp(-0.5 * x * x):
                return loc + scale * x

    def exponential(self, scale: float = 1.0) -> float:
        while True:
            s = self._state = (self._state * PCG_MULT + self._inc) & MASK128
            r = ((s >> 64 ^ s) & MASK64) * ROTATE_SPREAD >> (s >> 122)
            idx = r >> 3 & 0xFF
            r = r >> 11 & MASK53
            x = r * WE[idx]
            if r < KE[idx]:
                return scale * x  # 98.9% of draws
            if idx == 0:  # the tail beyond ZIGGURAT_EXP_R
                return scale * (ZIGGURAT_EXP_R - math.log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < math.exp(-x):
                return scale * x

    def bytes(self, length: int) -> bytes:
        words = (length - 1) // 4 + 1 if length else 1
        head = b""
        if self._half is not None:
            head, self._half = self._half.to_bytes(4, "little"), None
            words -= 1
        outputs = (words + 1) // 2
        s, inc, out = self._state, self._inc, []
        append = out.append
        for _ in range(outputs):
            s = (s * PCG_MULT + inc) & MASK128
            append((((s >> 64 ^ s) & MASK64) * ROTATE_SPREAD >> (s >> 122)) & MASK64)
        self._state = s
        if words & 1:  # the last output's high half waits for the next call
            self._half = out[-1] >> 32
        return (head + struct.pack(f"<{outputs}Q", *out))[:length]
