"""Bundled experimental reference tables.

Three CSV resources hold per-parameter coherence values measured on real
hardware: tables 1 and 2 cover the two pure families on the theta grid
0:2.5:45 degrees, table 3 covers sixteen Werner mixing parameters.  The files
are checksummed so accidental edits are caught at load time.
"""

import csv
import hashlib
import io
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


def load_fixture(table_id: int) -> FixtureTable:
    """Load one of the bundled tables, verifying its checksum."""
    if table_id not in _CHECKSUMS:
        raise ValueError(f"table_id must be 1, 2 or 3, got {table_id}")
    raw = resources.files("cohdist.data").joinpath(f"table_{table_id}.csv").read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _CHECKSUMS[table_id]:
        raise RuntimeError(
            f"fixture table {table_id} failed its checksum (got {digest}); the bundled data was modified"
        )
    lines = [ln for ln in io.StringIO(raw.decode("utf-8")) if not ln.startswith("#")]
    rows = tuple(
        FixtureRow(
            param=float(rec["param"]),
            cd_before=float(rec["cd_before"]),
            cd_after=float(rec["cd_after"]),
            delta=float(rec["delta"]),
        )
        for rec in csv.DictReader(lines)
    )
    return FixtureTable(table_id=table_id, rows=rows)
