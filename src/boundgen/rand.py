"""Counter-based pseudo-random stream for reproducible test vectors.

SplitMix64: the output at counter i is a pure function of (seed, i), so
identical seeds give identical draw sequences regardless of platform or
language.  Reports embed the seed so any run can be replayed bit-exactly.
"""

_MASK = (1 << 64) - 1


def splitmix64(seed: int, counter: int) -> int:
    """64-bit output of the SplitMix64 stream at position `counter`."""
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Stateful wrapper advancing a counter through the stream."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self.counter = 0

    def next64(self) -> int:
        out = splitmix64(self.seed, self.counter)
        self.counter += 1
        return out

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        # rejection sampling keeps the distribution exactly uniform
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            v = self.next64()
            if v < limit:
                return lo + (v % span)
