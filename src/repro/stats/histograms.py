"""Log-scaled histogram helpers shared by the workload analyzer and reports.

The workload analyzer (:mod:`repro.workloads.analyzer`) characterises traces
whose interesting quantities -- reuse distances, page strides, sharing
degrees -- span many orders of magnitude, so linear bins are useless.
:class:`Log2Histogram` buckets non-negative integers by power of two
(``0`` gets its own bucket; ``v >= 1`` lands in bucket
``floor(log2(v))``, i.e. the range ``[2**k, 2**(k+1))``) and round-trips
losslessly through JSON, which makes it safe to embed in analyzer profiles
that are drift-guarded byte-for-byte (``tests/golden``).

Kept deliberately free of simulator imports: this is a pure counting
utility, usable from :mod:`repro.stats` reports and from the workloads
layer without cycles.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

__all__ = ["Log2Histogram", "bucket_of", "bucket_bounds"]


def bucket_of(value: int) -> int:
    """The bucket index of a non-negative integer value.

    ``0 -> -1`` (the dedicated zero bucket); ``v >= 1 -> floor(log2(v))``.
    """
    if value < 0:
        raise ValueError(f"Log2Histogram values must be non-negative, got {value}")
    return value.bit_length() - 1 if value else -1


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(lo, hi)`` value range of bucket ``index``."""
    if index == -1:
        return (0, 0)
    if index < -1:
        raise ValueError(f"invalid bucket index {index}")
    return (1 << index, (1 << (index + 1)) - 1)


class Log2Histogram:
    """A power-of-two-bucketed histogram of non-negative integers.

    The JSON form is a plain ``{bucket_index_as_str: count}`` mapping with
    keys sorted numerically, so two histograms with the same counts always
    serialise byte-identically (analyzer profiles are golden-tested).
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Mapping[int, int]] = None) -> None:
        self.counts: Dict[int, int] = dict(counts) if counts else {}

    def add(self, value: int, weight: int = 1) -> None:
        """Count one observation of ``value`` (optionally ``weight`` of them)."""
        bucket = bucket_of(value)
        self.counts[bucket] = self.counts.get(bucket, 0) + weight

    def merge(self, other: "Log2Histogram") -> None:
        """Fold ``other``'s counts into this histogram."""
        for bucket, count in other.counts.items():
            self.counts[bucket] = self.counts.get(bucket, 0) + count

    @property
    def total(self) -> int:
        """Total number of observations."""
        return sum(self.counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log2Histogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Log2Histogram({self.counts!r})"

    # -- statistics ---------------------------------------------------------

    def quantile(self, q: float) -> int:
        """Approximate ``q``-quantile (the lower bound of the covering bucket).

        Exact for the zero bucket; other buckets report their lower bound,
        which under-estimates by at most 2x -- adequate for the analyzer's
        "working-set knee" style summaries.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self.total
        if total == 0:
            raise ValueError("quantile of an empty histogram")
        target = q * total
        running = 0
        for bucket in sorted(self.counts):
            running += self.counts[bucket]
            if running >= target:
                return bucket_bounds(bucket)[0]
        return bucket_bounds(max(self.counts))[0]

    # -- serialisation ------------------------------------------------------

    def to_json_dict(self) -> Dict[str, int]:
        """JSON form: ``{str(bucket): count}`` with numerically sorted keys."""
        return {str(bucket): self.counts[bucket] for bucket in sorted(self.counts)}

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, int]) -> "Log2Histogram":
        return cls({int(bucket): int(count) for bucket, count in payload.items()})

    # -- rendering ----------------------------------------------------------

    def format_markdown(self, *, value_label: str = "value") -> str:
        """Render as a Markdown table of bucket ranges, counts and shares."""
        lines: List[str] = [
            f"| {value_label} | count | share |",
            "|---|---:|---:|",
        ]
        total = self.total
        for bucket in sorted(self.counts):
            lo, hi = bucket_bounds(bucket)
            label = "0" if bucket == -1 else (str(lo) if lo == hi else f"{lo}-{hi}")
            count = self.counts[bucket]
            share = count / total if total else 0.0
            lines.append(f"| {label} | {count} | {share:.1%} |")
        return "\n".join(lines)
