"""The one cache of basis values: a tower of values per point.

A point x (a Poly, or a TruncSeries) owns one ``Tower``: its levels
E_0(x), E_1(x), ... (a list, filled from the bottom), its D_n(x) by n, and
its G_j(x), G'_j(x), D_j(x) and D'_j(x) by j.  An evaluation looks the
point up once (``TOWERS.tower``) and then reads the tower's own list and
dicts by integer index; ``carlitz`` and ``hasse`` fill them.

A Poly point is keyed by (field, coeffs) and a series point by
(field, v, coeffs, prec), the field being what identifies ``cfg``
(``FieldConfig._key``): the two key shapes never compare equal, so a Poly
and the exact series with its coefficients keep their own towers and
their own result types.  The cache is bounded by the bytes it holds: each
value counts its coefficient bytes plus ``_VALUE_BYTES``, and a point
four values' worth, for its tower's list and dicts.  Past
``TOWER_BUDGET`` the least recently looked-up points are dropped, down to
half the budget; the point in use stays.
"""
from __future__ import annotations

from typing import NamedTuple

from .algebra import Poly

# Bytes the cache may hold, values counted as above.
TOWER_BUDGET = 1 << 24
# What a cached value costs besides its coefficient bytes: its object, the
# header of its bytes and its slot in a tower; tiny values count by it.
_VALUE_BYTES = 128


class CacheInfo(NamedTuple):
    """The fields of ``functools.lru_cache``'s ``cache_info``, with sizes
    in bytes, plus the points held and the peak."""

    hits: int      # values read from a tower
    misses: int    # values computed and stored
    maxsize: int   # TOWER_BUDGET
    currsize: int  # bytes held
    points: int    # towers held
    peak: int      # the most bytes held since the last cache_clear


class Tower:
    """The values cached at one point ``x`` (see the module docstring).
    ``G`` and ``Dj`` are pairs of dicts, unprimed values and primed
    values, made by the first evaluation of their family (None before)."""

    __slots__ = ("x", "E", "D", "G", "Dj", "nbytes", "used")

    def __init__(self, x, used: int):
        self.x = x
        self.E = []
        self.D = {}
        self.G = self.Dj = None
        self.nbytes = len(x.coeffs) + 4 * _VALUE_BYTES
        self.used = used


class TowerCache:
    """Towers by point, least recently used dropped first."""

    def __init__(self):
        self.cache_clear()

    def cache_clear(self):
        self._towers = {}
        self._clock = 0
        self.nbytes = self.peak = self.hits = self.misses = 0

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, TOWER_BUDGET, self.nbytes,
                         len(self._towers), self.peak)

    def tower(self, cfg, x) -> Tower:
        """The tower of ``x`` over ``cfg``, made empty on first sight."""
        if isinstance(x, Poly):
            key = (cfg._key, x.coeffs)
        else:
            key = (cfg._key, x.v, x.coeffs, x.prec)
        self._clock += 1
        tower = self._towers.get(key)
        if tower is None:
            tower = self._towers[key] = Tower(x, self._clock)
            self._held(tower.nbytes)
        else:
            tower.used = self._clock
        return tower

    def charge(self, tower: Tower, value):
        """Count ``value``, just stored in ``tower`` (the point in use)."""
        size = len(value.coeffs) + _VALUE_BYTES
        tower.nbytes += size
        self.misses += 1
        self._held(size)

    def _held(self, size: int):
        self.nbytes += size
        if self.nbytes > TOWER_BUDGET:
            self._evict()
        if self.nbytes > self.peak:
            self.peak = self.nbytes

    def _evict(self):
        """Drop the least recently looked-up points until at most half the
        budget is held.  The latest point, the one in use, stays even when
        it alone holds more.  Dropping to half, not just under the budget,
        keeps the sort by recency off every later store."""
        by_use = sorted(self._towers.items(), key=lambda item: item[1].used)
        for key, tower in by_use[:-1]:
            if self.nbytes <= TOWER_BUDGET // 2:
                break
            del self._towers[key]
            self.nbytes -= tower.nbytes


TOWERS = TowerCache()

