"""Plain-text certificates for anti-van der Waerden results, and their checker.

A certificate packages a claimed aw value with the evidence a search
produced: the graph, k, the per-r existence flags, and the extremal witness
coloring.  emit_certificate(result, g) renders a compute_aw result and its
graph, and parse_certificate(text) returns that (result, g) pair again.  The
checker re-derives distances from the embedded graph text and validates the
witness on its own; it never runs a coloring search.  check_coloring,
which verify_certificate and the CLI's verify and construct checks all
call, takes the graph, counts its k-APs and names the first rainbow one:
at k = 3 from distance rings grown straight from the graph
(distance_rings, scan_3aps), with no distance rows and no AP table, and
otherwise from the distance rows and the AP table.  At k = 3 the parity
rule applies: a bipartite graph, such as the grid of any grid certificate,
has no 3-AP with three equal distances at odd d, so the count skips
looking for them there.
Nonexistence flags ("no rainbow-free exact r-coloring") are attestations of
an exhausted search and are not re-proved.  The claimed aw fixes PER_R and
whether a witness is present, as compute_aw writes them: PER_R holds
r = k..min(aw, n), true below aw and false at aw, and WITNESS is "none"
exactly when aw <= 2 (a coloring with aw - 1 >= 2 colors is always written).

Format: five sections in fixed order, separated by blank lines, each a
header line followed by its content:

    GRAPH        graph file text (embedded verbatim)
    K            one integer
    CLAIMED_AW   one integer
    WITNESS      coloring file text, or the single word "none"
    PER_R        one line "<r> true|false" per examined color count

parse_certificate and verify_certificate share one section parser.  GRAPH
is read by parse_graph and a WITNESS coloring by parse_coloring_fields, so
both accept '#' comment lines, as does a WITNESS of "none".  Whether the
witness is exact is decided by Coloring alone: parse_certificate rejects a
non-exact witness, verify_certificate reports it as witness-invalid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .aps import ArithmeticProgression, check_k, enumerate_k_aps, find_rainbow_ap, scan_3aps
from .coloring import Coloring, ColoringError, coloring_to_text, parse_coloring_fields
from .errors import AwgraphError
from .graphs import (
    Graph,
    GraphError,
    all_pairs_distances,
    content_lines,
    distance_rings,
    graph_to_text,
    int_field,
    parse_graph,
)
from .search import AwResult, per_r_verdicts

VERDICT_WITNESS_VALID = "witness-valid"
VERDICT_WITNESS_INVALID = "witness-invalid"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_MALFORMED = "malformed"

_SECTIONS = ("GRAPH", "K", "CLAIMED_AW", "WITNESS", "PER_R")


class CertificateFormatError(AwgraphError, ValueError):
    """Certificate text does not follow the five-section format."""


@dataclass(frozen=True)
class VerificationReport:
    """Verdict plus human-readable notes on what was and was not checked."""

    verdict: str
    notes: tuple[str, ...]


# ======================================================================
# Emission
# ======================================================================


def emit_certificate(result: AwResult, g: Graph) -> str:
    """Render a compute_aw outcome on g in the five-section certificate format."""
    if result.n != g.n:
        raise ValueError(f"result is for {result.n} vertices but the graph has {g.n}")
    witness = result.witness
    parts = [
        "GRAPH\n" + graph_to_text(g).rstrip("\n"),
        f"K\n{result.k}",
        f"CLAIMED_AW\n{result.aw}",
        "WITNESS\n" + (coloring_to_text(witness).rstrip("\n") if witness is not None else "none"),
        "PER_R\n" + ("\n".join(_per_r_lines(result.per_r)) or "none"),
    ]
    return "\n\n".join(parts) + "\n"


def _per_r_lines(per_r) -> list[str]:
    """The PER_R lines "<r> true|false" of per_r, in order."""
    return [f"{r} {str(flag).lower()}" for r, flag in per_r]


# ======================================================================
# Parsing
# ======================================================================


def _split_sections(text: str) -> dict[str, list[str]]:
    lines = map(str.rstrip, text.splitlines())  # a whitespace-only line is blank
    blocks = [list(block) for filled, block in groupby(lines, bool) if filled]
    if len(blocks) != len(_SECTIONS):
        raise CertificateFormatError(
            f"expected {len(_SECTIONS)} sections {_SECTIONS}, found {len(blocks)}"
        )
    out: dict[str, list[str]] = {}
    for block, name in zip(blocks, _SECTIONS):
        if block[0].strip() != name:
            raise CertificateFormatError(
                f"expected section {name!r}, found {block[0]!r}"
            )
        if len(block) < 2:
            raise CertificateFormatError(f"section {name} has no content")
        out[name] = block[1:]
    return out


def _single_int(lines: list[str], name: str) -> int:
    if len(lines) != 1:
        raise CertificateFormatError(f"section {name} must be a single line")
    return int_field(lines[0], f"section {name}", CertificateFormatError)


def _parse_per_r_lines(lines: list[str]) -> tuple[tuple[int, bool], ...]:
    if len(lines) == 1 and lines[0].strip() == "none":
        return ()
    out = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2 or parts[1] not in ("true", "false"):
            raise CertificateFormatError(
                f"PER_R line must be '<r> true|false', got {ln!r}"
            )
        try:
            r = int(parts[0])
        except ValueError:
            raise CertificateFormatError(
                f"PER_R line must start with an integer, got {ln!r}"
            ) from None
        out.append((r, parts[1] == "true"))
    return tuple(out)


def _parse_fields(text: str):
    """(graph, k, claimed, witness (colors, r) or None, per_r) from certificate text.

    The witness is read structurally only; exactness is left to Coloring.
    Raises CertificateFormatError, naming the section for graph and witness
    defects.
    """
    sections = _split_sections(text)
    try:
        graph = parse_graph("\n".join(sections["GRAPH"]))
    except GraphError as exc:
        raise CertificateFormatError(f"bad GRAPH section: {exc}") from None
    k = _single_int(sections["K"], "K")
    if k < 2:
        raise CertificateFormatError(f"k must be >= 2, got {k}")
    claimed = _single_int(sections["CLAIMED_AW"], "CLAIMED_AW")
    witness = None
    if content_lines("\n".join(sections["WITNESS"])) != ["none"]:
        try:
            witness = parse_coloring_fields("\n".join(sections["WITNESS"]))
        except ColoringError as exc:
            raise CertificateFormatError(f"bad WITNESS section: {exc}") from None
    return graph, k, claimed, witness, _parse_per_r_lines(sections["PER_R"])


def parse_certificate(text: str) -> tuple[AwResult, Graph]:
    """(result, graph) such that emit_certificate(result, graph) wrote text.

    Strict: raises CertificateFormatError on any structural defect, and the
    witness, when present, must be an exact coloring.  The claim is not
    checked against the graph; that is verify_certificate's job.
    """
    graph, k, claimed, fields, per_r = _parse_fields(text)
    witness = None
    if fields is not None:
        try:
            witness = Coloring(*fields)
        except ColoringError as exc:
            raise CertificateFormatError(f"bad WITNESS section: {exc}") from None
    return AwResult(claimed, k, graph.n, per_r, witness), graph


# ======================================================================
# Verification
# ======================================================================


def check_coloring(g: Graph, k: int, colors) -> tuple[int, ArithmeticProgression | None]:
    """(number of k-APs, first rainbow k-AP in table order or None) for colors on g.

    The one place that picks the method: distance rings at k = 3, the
    distance rows, the AP table and find_rainbow_ap for every other k.
    Raises ValueError for colors whose length is not g.n, then for a k
    that aps.check_k refuses.
    """
    if len(colors) != g.n:
        raise ValueError(f"coloring has {len(colors)} vertices but the graph has {g.n}")
    check_k(k)
    if k == 3:
        return scan_3aps(distance_rings(g), colors)
    table = enumerate_k_aps(all_pairs_distances(g), k)
    return sum(map(len, table.ahead)), find_rainbow_ap(table, colors)


def verify_certificate(text: str) -> VerificationReport:
    """Classify certificate text: witness-valid, witness-invalid, inconsistent or malformed.

    Checks the witness on the embedded graph with check_coloring, so
    distance rows and an AP table are built only for k != 3.  The first
    failing check decides the verdict:

    1. the text parses (malformed);
    2. the claim lies in min(k, n + 1)..n + 1 and fixes PER_R and whether a
       witness is present (inconsistent, naming each mismatch);
    3. the witness colors n vertices exactly with claimed aw - 1 colors
       (witness-invalid);
    4. a graph without k-APs claims n + 1 (inconsistent);
    5. the witness is rainbow-free (witness-invalid).

    Merging two color classes of a rainbow-free exact r-coloring gives one
    with r - 1 colors, so existence only goes from true to false as r grows;
    compute_aw stops at the first false, so the claim alone fixes PER_R
    (per_r_verdicts).  Nonexistence attestations are not re-proved: a
    "valid" verdict certifies the lower bound and the internal consistency,
    not the exhaustive search itself.
    """
    try:
        graph, k, claimed, witness, per_r = _parse_fields(text)
    except CertificateFormatError as exc:
        return VerificationReport(VERDICT_MALFORMED, (str(exc),))
    n = graph.n
    notes = [f"graph: n={n} m={graph.m}, k={k}, claimed aw={claimed}"]

    def report(verdict: str, *more: str) -> VerificationReport:
        return VerificationReport(verdict, (*notes, *more))

    low = min(k, n + 1)
    if not low <= claimed <= n + 1:
        return report(
            VERDICT_INCONSISTENT, f"claimed aw={claimed} outside the bounds {low}..n+1={n + 1}"
        )
    problems = []
    expected = per_r_verdicts(k, n, claimed)
    if per_r != expected:
        problems.append(
            f"PER_R [{', '.join(_per_r_lines(per_r))}] differs from"
            f" [{', '.join(_per_r_lines(expected))}],"
            f" the only section claimed aw={claimed} allows"
        )
    if (witness is not None) != (claimed > 2):
        problems.append(
            f"WITNESS {'present' if witness is not None else 'none'} with claimed aw={claimed};"
            " a witness is written exactly when aw >= 3"
        )
    if problems:
        return report(VERDICT_INCONSISTENT, *problems)
    if any(not flag for _, flag in per_r):
        notes.append("nonexistence flags are attestations of an exhausted search, not re-proved")
    if witness is None:
        return report(
            VERDICT_WITNESS_VALID, "witness absent: a 1-coloring certifies nothing to check"
        )

    values, r = witness
    if len(values) != n:
        return report(
            VERDICT_WITNESS_INVALID, f"witness colors {len(values)} vertices, graph has {n}"
        )
    if r != claimed - 1:
        return report(
            VERDICT_WITNESS_INVALID,
            f"witness declares r={r}, expected claimed aw - 1 = {claimed - 1}",
        )
    try:
        Coloring(values, r)
    except ColoringError as exc:
        return report(VERDICT_WITNESS_INVALID, f"witness is {exc}")
    count, rainbow = check_coloring(graph, k, values)
    # With k <= n every exact n-coloring is rainbow on any k-AP, so a graph
    # without k-APs has aw = n + 1 and nothing less.
    if not count and claimed <= n:
        return report(
            VERDICT_INCONSISTENT, f"graph has no {k}-AP, so aw = n + 1 = {n + 1}, not {claimed}"
        )
    if rainbow is not None:
        return report(
            VERDICT_WITNESS_INVALID,
            f"witness has a rainbow {k}-AP: vertices {list(rainbow.vertices)}"
            f" (ordering {list(rainbow.witness)}, d={rainbow.d})",
        )
    return report(
        VERDICT_WITNESS_VALID,
        f"witness checked: exact {r}-coloring,"
        f" rainbow-free against all {count} {k}-APs",
    )
