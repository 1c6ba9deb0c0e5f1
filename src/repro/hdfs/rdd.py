"""RDD over a MiniHDFS text file: one partition per block, locality hints."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.engine.rdd import RDD, read_source, source_blocks
from repro.engine.task import TaskContext
from repro.hdfs.filesystem import MiniHDFS

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.context import Context


class HdfsTextFileRDD(RDD):
    """Lines of an HDFS file; partition ``i`` reads block ``i``.

    Because MiniHDFS blocks are line-aligned at write time, each block is a
    self-contained set of records -- no cross-block line repair needed.

    The filesystem lives on the driver.  The first pickle of the RDD (a
    process-isolated backend building a task binary) reads every block on
    the driver into a source block and ships without the filesystem;
    locality hints are only ever asked for on the driver.
    """

    def __init__(self, ctx: "Context", fs: MiniHDFS, path: str) -> None:
        super().__init__(ctx, [], f"hdfs:{path}")
        self._fs = fs
        self._path = path
        self._blocks = fs.blocks(path)
        self._sources: list | None = None

    def num_partitions(self) -> int:
        return len(self._blocks)

    def preferred_locations(self, split: int) -> list[str]:
        return self._fs.block_locations(self._blocks[split])

    def compute(self, split: int, tc: TaskContext) -> Iterator:
        if self._fs is not None:
            data = self._fs.read_block(self._blocks[split])
        else:
            data = read_source(self._sources[split])
        lines = data.decode("utf-8").splitlines()
        tc.metrics.records_read += len(lines)
        return iter(lines)

    def __getstate__(self) -> dict:
        if self._sources is None:
            self._sources = source_blocks(
                self.context, [self._fs.read_block(b) for b in self._blocks]
            )
        state = super().__getstate__()
        state["_fs"] = None
        return state
