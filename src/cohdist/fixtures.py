"""Bundled experimental reference tables.

Three CSV resources hold per-parameter coherence values measured on real
hardware: tables 1 and 2 cover the two pure families on the theta grid
0:2.5:45 degrees, table 3 covers sixteen Werner mixing parameters.  A process
reads and parses each file once; every load_fixture call checks those bytes'
sha256, so an edit is caught at load time and no table of bad bytes is returned.
"""

import functools
import hashlib
import numbers
from dataclasses import dataclass
from importlib import resources

_CHECKSUMS = {
    1: "32851b8448fd984662dd725b01d5fe91b79622e33a32bf392a881c3bf6d5e011",
    2: "73ef5be1d0ac67888d68e5381612e1d306a1b8345a5d887c221d4f7f448ed169",
    3: "a91a4a050e112a9f751a7844667bcd9361e8ac92bbfa54ef27f6603a9bb86b13",
}


@dataclass(frozen=True)
class FixtureRow:
    param: float
    cd_before: float
    cd_after: float
    delta: float


@dataclass(frozen=True)
class FixtureTable:
    table_id: int
    rows: tuple[FixtureRow, ...]

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(r.param for r in self.rows)


@functools.lru_cache(maxsize=None, typed=True)
def _bundled(table_id: int) -> bytes:
    return resources.files("cohdist.data").joinpath(f"table_{table_id}.csv").read_bytes()


@functools.lru_cache(maxsize=None, typed=True)
def _parse(table_id: int, raw: bytes) -> FixtureTable:
    # the checksum pins the header "param,cd_before,cd_after,delta", so each line splits in FixtureRow's order
    _, *lines = (ln for ln in raw.decode("utf-8").splitlines() if not ln.startswith("#"))
    return FixtureTable(table_id=table_id, rows=tuple(FixtureRow(*map(float, ln.split(","))) for ln in lines))


def load_fixture(table_id: int) -> FixtureTable:
    """One of the bundled tables, its checksum verified on every call; the (frozen) table is shared between calls."""
    if not isinstance(table_id, numbers.Integral) or isinstance(table_id, bool) or table_id not in _CHECKSUMS:
        raise ValueError(f"table_id must be 1, 2 or 3, got {table_id}")  # True and 1.0 equal the key 1
    table_id = int(table_id)
    raw = _bundled(table_id)
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _CHECKSUMS[table_id]:
        raise RuntimeError(f"fixture table {table_id} failed its checksum (got {digest}); the bundled data was modified")
    return _parse(table_id, raw)
