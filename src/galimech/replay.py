"""Random streams seeded once and replayed to many readers, for ``verify``.

Each stream carries one memo for all its replays: a ``drawn`` sampler runs
once per stream position, and a replay that calls it there again gets the
same value and moves to where that draw ended.  Kept out of ``verify``,
whose compile is the largest transient of a cold start: peak memory follows
that module's size.
"""

from __future__ import annotations

import random
from functools import partialmethod
from itertools import repeat

# Words kept of each stream: a trial rarely draws more.
WORDS = 56


def stream(gen: random.Random, seed: int) -> tuple[int, list[int], list[float], dict]:
    """``seed``, the first words of ``gen`` seeded so, the ``random()`` at each, a memo."""
    gen.seed(seed)
    w = list(map(gen.getrandbits, repeat(32, WORDS)))
    return seed, w, [((a >> 5) * 67108864.0 + (b >> 6)) * (1.0 / 9007199254740992.0)
                     for a, b in zip(w, w[1:])], {}


def drawn(sampler):
    """``sampler``, kept per position of a ``Replay``'s stream; its values must not change.
    Only draws that end in the kept words, with no delegated generator, are kept."""
    def draw(rng):
        if type(rng) is not Replay:
            return sampler(rng)
        memo, key = rng._memo, (sampler, rng._j)
        hit = memo.get(key)
        if hit is None:
            hit = sampler(rng), rng._j
            if rng._rng is None:
                memo[key] = hit
        rng._j = hit[1]
        return hit[0]
    return draw


class Replay:
    """``random.Random(seed)`` replayed: ``random``, ``getrandbits(k <= 32)``, ``randrange``
    and ``choice`` read its ``stream``; the rest goes to a real generator at that point."""

    __slots__ = ("_seed", "_words", "_doubles", "_memo", "_j", "_rng")
    randrange, choice, _randbelow = (random.Random.randrange, random.Random.choice,
                                     random.Random._randbelow)

    def __init__(self, kept: tuple[int, list[int], list[float], dict]) -> None:
        (self._seed, self._words, self._doubles, self._memo), self._j, self._rng = kept, 0, None

    def random(self) -> float:
        j = self._j
        try:
            x = self._doubles[j]
        except IndexError:
            return self._delegated("random")
        self._j = j + 2
        return x

    def getrandbits(self, k: int) -> int:
        j = self._j
        if 0 < k <= 32 and j < WORDS:
            self._j = j + 1
            return self._words[j] >> (32 - k)
        return self._delegated("getrandbits", k)

    def _delegated(self, name: str, *args, **kwargs):
        if self._rng is None:
            self._rng = random.Random(self._seed)
            self._rng.getrandbits(32 * self._j)
            self._j = WORDS
        return getattr(self._rng, name)(*args, **kwargs)


# A class ``__getattr__`` would slow every attribute read of a replay.
for _name in {n for n in dir(random.Random) if n[0] != "_"} - {"VERSION", *vars(Replay)}:
    setattr(Replay, _name, partialmethod(Replay._delegated, _name))
