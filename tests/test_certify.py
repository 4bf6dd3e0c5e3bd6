"""Certificate emission, parsing, and the four-way verification verdict."""

import hashlib

import pytest

import awgraph.certify
from awgraph import (
    CertificateFormatError,
    DisconnectedGraphError,
    VERDICT_INCONSISTENT,
    VERDICT_MALFORMED,
    VERDICT_WITNESS_INVALID,
    VERDICT_WITNESS_VALID,
    VerificationReport,
    all_pairs_distances,
    build_complete,
    build_grid,
    build_path,
    build_star,
    compute_aw,
    emit_certificate,
    enumerate_k_aps,
    parse_certificate,
    parse_graph,
    verify_certificate,
)
from prop_helpers import small_corpus


def _instances():
    out = []
    for g, k in (
        (build_grid(2, 3)[0], 3),
        (build_grid(2, 4)[0], 3),
        (build_path(2), 3),
        (build_path(2), 2),
        (build_path(5), 4),
        (build_star(5), 3),
        (build_path(3), 5),  # k = n + 2: aw = n + 1 with no PER_R lines
        *((g, k) for _, g in small_corpus() for k in (2, 3, 4, 5)),
    ):
        out.append((g, k, compute_aw(g, k)))
    return out


def _grid23_text():
    g, _ = build_grid(2, 3)
    return emit_certificate(compute_aw(g, 3), g)


def test_round_trip():
    for g, k, res in _instances():
        assert parse_certificate(emit_certificate(res, g)) == (res, g), (g, k)


# Full certificate bytes, pinned: a grid with a witness, an absent witness
# (aw - 1 = 1) and an empty PER_R (k > n).
GOLDEN_CERTIFICATES = [
    (
        build_grid(2, 3)[0],
        3,
        "GRAPH\n6 7\n0 1\n0 3\n1 2\n1 4\n2 5\n3 4\n4 5\n\nK\n3\n\nCLAIMED_AW\n4\n\n"
        "WITNESS\n6 3\n1 1 2 3 1 1\n\nPER_R\n3 true\n4 false\n",
    ),
    (
        build_path(2),
        2,
        "GRAPH\n2 1\n0 1\n\nK\n2\n\nCLAIMED_AW\n2\n\nWITNESS\nnone\n\nPER_R\n2 false\n",
    ),
    (
        build_path(3),
        5,
        "GRAPH\n3 2\n0 1\n1 2\n\nK\n5\n\nCLAIMED_AW\n4\n\n"
        "WITNESS\n3 3\n1 2 3\n\nPER_R\nnone\n",
    ),
]


def test_golden_certificate_bytes():
    for g, k, text in GOLDEN_CERTIFICATES:
        assert emit_certificate(compute_aw(g, k), g) == text, (g, k)


def test_emitted_certificates_verify():
    for g, k, res in _instances():
        report = verify_certificate(emit_certificate(res, g))
        assert report.verdict == VERDICT_WITNESS_VALID, report.notes
        if res.witness is not None:
            assert any("witness checked" in note for note in report.notes)


def test_mismatched_result_and_graph_rejected():
    g, _ = build_grid(2, 3)
    with pytest.raises(ValueError):
        emit_certificate(compute_aw(g, 3), build_path(5))


def _swap(text, old, new):
    assert old in text, f"expected {old!r} in certificate"
    return text.replace(old, new)


def test_recolored_witness_is_invalid():
    text = _swap(_grid23_text(), "1 1 2 3 1 1", "1 1 2 3 2 1")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_INVALID
    assert any("rainbow" in note for note in report.notes)


def test_wrong_dimension_witness_is_invalid():
    text = _swap(_grid23_text(), "6 3\n1 1 2 3 1 1", "5 3\n1 1 2 3 1")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_INVALID
    assert any("vertices" in note for note in report.notes)


def test_wrong_color_count_witness_is_invalid():
    text = _swap(_grid23_text(), "6 3\n1 1 2 3 1 1", "6 2\n1 1 2 2 1 1")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_INVALID
    assert any("claimed aw - 1" in note for note in report.notes)


def test_non_exact_witness_is_invalid_but_parse_rejects():
    text = _swap(_grid23_text(), "1 1 2 3 1 1", "1 1 2 2 1 1")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_INVALID
    assert any("not exact" in note for note in report.notes)
    # The strict parser refuses what the checker merely classifies.
    with pytest.raises(CertificateFormatError):
        parse_certificate(text)


def test_witness_with_huge_r_is_rejected_at_once():
    # A WITNESS that declares r = 10^9 for six vertices is refused without
    # building 1..r: parse_certificate raises, and the checker, which tests
    # r against the claim first, calls the witness invalid.
    text = _swap(_grid23_text(), "6 3\n1 1 2 3 1 1", "6 1000000000\n1 1 2 3 1 1")
    with pytest.raises(CertificateFormatError) as info:
        parse_certificate(text)
    assert str(info.value) == (
        "bad WITNESS section: not exact: colors [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, ...] unused"
    )
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_INVALID
    assert report.notes[-1] == "witness declares r=1000000000, expected claimed aw - 1 = 3"


def test_shifted_claim_is_inconsistent():
    for wrong in ("3", "5"):
        text = _swap(_grid23_text(), "CLAIMED_AW\n4", f"CLAIMED_AW\n{wrong}")
        report = verify_certificate(text)
        assert report.verdict == VERDICT_INCONSISTENT, wrong


def test_gapped_attestations_are_inconsistent():
    for per_r in (
        "3 true\n5 false",
        # Existence only goes from true to false as r grows, and the search
        # stops at the first false, so nothing may follow it.
        "3 true\n4 false\n5 true",
        "3 true\n4 false\n5 false",
        # The claim of 4 fixes the section to exactly these two lines.
        "3 false",
        "4 false",
        "3 true\n4 true",
        "none",
    ):
        text = _swap(_grid23_text(), "3 true\n4 false", per_r)
        assert verify_certificate(text).verdict == VERDICT_INCONSISTENT, per_r


def test_short_attestation_range_is_inconsistent():
    text = _swap(_grid23_text(), "3 true\n4 false", "3 true")
    assert verify_certificate(text).verdict == VERDICT_INCONSISTENT


def test_malformed_inputs():
    good = _grid23_text()
    bad_texts = [
        "",
        "nonsense\n",
        good.replace("PER_R\n", "RESULTS\n"),
        good[: good.index("PER_R")].rstrip("\n") + "\n",
        good.replace("GRAPH\n6 7", "GRAPH\n6 9"),
        good.replace("0 1\n", "0 9\n"),
        good.replace("K\n3", "K\n1"),
        good.replace("K\n3", "K\nthree"),
        good.replace("1 1 2 3 1 1", "1 1 2 3 0 1"),
        good.replace("WITNESS\n6 3\n", "WITNESS\n6\n"),
        good.replace("1 1 2 3 1 1", "1 1 2 x 1 1"),
        good.replace("\n1 1 2 3 1 1", ""),
        good.replace("3 true", "3 maybe"),
        good + "\nEXTRA\n1\n",
    ]
    for text in bad_texts:
        report = verify_certificate(text)
        assert report.verdict == VERDICT_MALFORMED, text[:60]
        with pytest.raises(CertificateFormatError):
            parse_certificate(text)


def test_malformed_notes_name_the_defect():
    good = _grid23_text()
    for text, note in (
        (good.replace("K\n3\n", "K\n", 1), "section K has no content"),
        (good.replace("K\n3\n", "K\n3\n3\n", 1), "section K must be a single line"),
        (good.replace("3 true", "x true"), "PER_R line must start with an integer, got 'x true'"),
        (good.replace("K\n3\n", "K\nthree\n", 1), "section K must be an integer, got 'three'"),
        (
            good.replace("CLAIMED_AW\n4\n", "CLAIMED_AW\n 4x \n", 1),
            "section CLAIMED_AW must be an integer, got ' 4x'",
        ),
        (
            good.replace("6 3\n1 1 2 3 1 1\n", "6 3\n1 1 2 z 1 1\n", 1),
            "bad WITNESS section: color 'z' at vertex 3 is not an integer",
        ),
    ):
        assert verify_certificate(text) == VerificationReport(VERDICT_MALFORMED, (note,))


def test_claim_outside_bounds_is_inconsistent():
    g = build_path(4)
    text = _swap(emit_certificate(compute_aw(g, 3), g), "CLAIMED_AW\n4", "CLAIMED_AW\n9")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_INCONSISTENT
    assert "claimed aw=9 outside the bounds 3..n+1=5" in report.notes


def test_comment_lines_in_graph_and_witness():
    # Both sections embed file formats that allow '#' comment lines.
    good = _grid23_text()
    text = _swap(good, "GRAPH\n", "GRAPH\n# grid 2x3\n")
    text = _swap(text, "WITNESS\n6 3\n", "WITNESS\n# n r\n6 3\n# colors\n")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert report == verify_certificate(good)
    assert parse_certificate(text) == parse_certificate(good)
    # Comment lines may also surround an absent witness.
    p2 = build_path(2)
    good = emit_certificate(compute_aw(p2, 2), p2)
    text = _swap(good, "WITNESS\nnone", "WITNESS\n# absent\nnone")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert report == verify_certificate(good)
    assert parse_certificate(text) == parse_certificate(good)


def test_whitespace_separators_and_trailing_spaces():
    # A separator line of spaces and tabs is blank, and trailing spaces on
    # any line are ignored.
    p2 = build_path(2)
    for good in (_grid23_text(), emit_certificate(compute_aw(p2, 2), p2)):
        text = "".join(f"{ln}  \n" if ln else " \t\n" for ln in good.splitlines())
        assert text != good and text.count(" \t\n") == 4
        assert verify_certificate(text) == verify_certificate(good)
        assert parse_certificate(text) == parse_certificate(good)


def test_edgeless_huge_graph_is_rejected_at_once():
    # Fewer than n - 1 edges cannot connect n vertices; this is caught before
    # any adjacency row is built, so 10^8 vertices cost nothing.
    with pytest.raises(DisconnectedGraphError):
        parse_graph("100000000 0\n")
    text = (
        "GRAPH\n100000000 0\n\nK\n3\n\nCLAIMED_AW\n3\n\nWITNESS\nnone\n\nPER_R\n3 false\n"
    )
    report = verify_certificate(text)
    assert report.verdict == VERDICT_MALFORMED
    assert "bad GRAPH section" in report.notes[0]


def test_k_above_n_has_no_aps_and_verifies():
    # With fewer than k vertices the AP table is empty at once, so the
    # certificate compute_aw emits for aw = n + 1 verifies at once too.
    g = build_complete(12)
    assert enumerate_k_aps(all_pairs_distances(g), 13).aps == ()
    report = verify_certificate(emit_certificate(compute_aw(g, 13), g))
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes
    assert any("against all 0 13-APs" in note for note in report.notes)


def test_graph_without_k_aps_must_claim_n_plus_1():
    # star:4 has diameter 2, so it has no 4-AP and every exact 4-coloring is
    # rainbow-free: aw = 5.  A claim of 4 with a valid 3-coloring witness
    # passes every other check.
    g = build_star(4)
    assert enumerate_k_aps(all_pairs_distances(g), 4).aps == ()
    text = (
        "GRAPH\n4 3\n0 1\n0 2\n0 3\n\nK\n4\n\nCLAIMED_AW\n4\n\n"
        "WITNESS\n4 3\n1 1 2 3\n\nPER_R\n4 false\n"
    )
    report = verify_certificate(text)
    assert report.verdict == VERDICT_INCONSISTENT, report.notes
    assert any("aw = n + 1 = 5" in note for note in report.notes)
    report = verify_certificate(emit_certificate(compute_aw(g, 4), g))
    assert report.verdict == VERDICT_WITNESS_VALID, report.notes


def _grid22_text(claimed, per_r):
    g, _ = build_grid(2, 2)
    graph_section = emit_certificate(compute_aw(g, 3), g).split("\n\nK\n")[0]
    return (
        graph_section
        + f"\n\nK\n3\n\nCLAIMED_AW\n{claimed}\n\nWITNESS\nnone\n\nPER_R\n{per_r}\n"
    )


def test_absent_witness_is_attested_not_checked():
    # compute_aw writes a witness exactly when aw >= 3, so a claim of 3
    # without one is not a certificate it can emit.
    report = verify_certificate(_grid22_text(3, "3 false"))
    assert report.verdict == VERDICT_INCONSISTENT
    assert any("WITNESS none" in note for note in report.notes)

    # P_2 with k = 2: aw - 1 = 1, so no witness can exist at all.
    p2 = build_path(2)
    res = compute_aw(p2, 2)
    assert res.witness is None
    report = verify_certificate(emit_certificate(res, p2))
    assert report.verdict == VERDICT_WITNESS_VALID
    assert any("witness absent" in note for note in report.notes)
    # ... and a witness there is one the search never writes.
    text = _swap(emit_certificate(res, p2), "WITNESS\nnone", "WITNESS\n2 1\n1 1")
    report = verify_certificate(text)
    assert report.verdict == VERDICT_INCONSISTENT
    assert any("WITNESS present" in note for note in report.notes)


def test_false_claim_without_witness_is_inconsistent():
    # aw(P_2 box P_2, 3) = 3.  Claiming 4 with the PER_R that claim fixes
    # and no witness would attest a rainbow-free exact 3-coloring that
    # does not exist.
    assert compute_aw(build_grid(2, 2)[0], 3).aw == 3
    report = verify_certificate(_grid22_text(4, "3 true\n4 false"))
    assert report.verdict == VERDICT_INCONSISTENT, report.notes


def test_checker_does_not_import_the_search_engine():
    names = vars(awgraph.certify)
    for banned in (
        "compute_aw",
        "exists_rainbow_free_coloring",
        "enumerate_rainbow_free_colorings",
    ):
        assert banned not in names


# Edits applied to every emitted certificate in the pinned sweep below, each
# on its first occurrence: the claim set to 1, the first flag flipped either
# way, an extra PER_R line, a comment in WITNESS and K = 1.  A witness is also
# reversed, made one color, declared with one more color, and cut by a vertex.
def _pinned_edits(text, k, aw):
    edits = [
        text.replace(f"CLAIMED_AW\n{aw}\n", "CLAIMED_AW\n1\n", 1),
        text.replace(" true", " false", 1),
        text.replace(" false", " true", 1),
        text + "9 true\n",
        text.replace("WITNESS\n", "WITNESS\n# witness\n", 1),
        text.replace(f"\n\nK\n{k}\n", "\n\nK\n1\n", 1),
    ]
    head, rest = text.split("WITNESS\n")
    if rest.startswith("none"):
        return edits
    header, colors, tail = rest.split("\n", 2)
    n, r = map(int, header.split())
    for header, colors in (
        (header, " ".join(reversed(colors.split()))),
        (header, " ".join(["1"] * n)),
        (f"{n} {r + 1}", colors),
        (f"{n - 1} {r}", colors.rsplit(" ", 1)[0]),
    ):
        edits.append(f"{head}WITNESS\n{header}\n{colors}\n{tail}")
    return edits


def _pinned_reports():
    for name, g in small_corpus():
        for k in (2, 3, 4, 5):
            res = compute_aw(g, k)
            text = emit_certificate(res, g)
            lines = text.split("\n")
            variants = [text, *_pinned_edits(text, k, res.aw)]
            variants += ["\n".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))]
            for variant in variants:
                yield (name, k), variant, verify_certificate(variant)


# sha256 over repr((verdict, notes)) of every report in _pinned_reports, in order.
PINNED_REPORTS_SHA256 = "7ff63e18ab67920d33a8c22cee1c374b0b62fa2fa87b7fae99453502c8143b2c"


def test_verdicts_and_notes_are_pinned():
    digest = hashlib.sha256()
    by_case = {}
    for case, text, report in _pinned_reports():
        digest.update(repr((report.verdict, report.notes)).encode())
        by_case.setdefault(case, []).append(report)
    assert len(by_case) == 4 * len(small_corpus())
    assert digest.hexdigest() == PINNED_REPORTS_SHA256
    # A few reports in full, so a failure above can be read: grid:2x3 at
    # k = 3 as emitted, with the claim set to 1, with the first "true"
    # flipped, and with K = 1.
    emitted, claim1, flipped = by_case["grid:2x3", 3][:3]
    assert emitted == VerificationReport(
        VERDICT_WITNESS_VALID,
        (
            "graph: n=6 m=7, k=3, claimed aw=4",
            "nonexistence flags are attestations of an exhausted search, not re-proved",
            "witness checked: exact 3-coloring, rainbow-free against all 12 3-APs",
        ),
    )
    assert claim1 == VerificationReport(
        VERDICT_INCONSISTENT,
        ("graph: n=6 m=7, k=3, claimed aw=1", "claimed aw=1 outside the bounds 3..n+1=7"),
    )
    assert flipped == VerificationReport(
        VERDICT_INCONSISTENT,
        (
            "graph: n=6 m=7, k=3, claimed aw=4",
            "PER_R [3 false, 4 false] differs from [3 true, 4 false],"
            " the only section claimed aw=4 allows",
        ),
    )
    assert by_case["grid:2x3", 3][6] == VerificationReport(
        VERDICT_MALFORMED, ("k must be >= 2, got 1",)
    )
