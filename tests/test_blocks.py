import itertools

import pytest

from pathpart.classify import (V1, V2A, V2B, V3, V4, V5, classify_edges,
                               classify_vertices)
from pathpart.discharge import DischargeError, decompose_blocks
from pathpart.graphs import gen_random_regular
from pathpart.partition import PATH
from pathpart.solver import solve


def test_scan_with_mixed_kinds():
    classes = [V1, V2A, V3, V2A, V4, V4, V2A, V5, V4, V1]
    blocks = decompose_blocks(classes)
    assert [(b.x_positions, b.p_positions, b.kind) for b in blocks] == [
        ([1], [2], 1),
        ([3], [4, 5], 2),
        ([6], [8], 4),
    ]
    assert blocks[-1].last


def test_scan_no_v2_no_blocks():
    assert decompose_blocks([V1, V5, V5, V1]) == []


def test_scan_long_run_kind3():
    blocks = decompose_blocks([V1, V2B, V2B, V3, V1])
    assert len(blocks) == 1
    blk = blocks[0]
    assert (blk.x_positions, blk.p_positions, blk.kind) == ([1, 2], [3], 3)


def test_scan_last_block_empty_tail():
    blocks = decompose_blocks([V1, V3, V2A, V1])
    assert [(b.x_positions, b.p_positions, b.kind) for b in blocks] == [([2], [], 4)]


def test_structural_violation_rejected():
    with pytest.raises(DischargeError):
        decompose_blocks([V1, V2A, V4, V2A, V1])  # non-last tail is one V4
    with pytest.raises(DischargeError):
        decompose_blocks([V2A, V1])  # must start at V1
    with pytest.raises(DischargeError, match=r"block at positions \[1\]\+\[2, 3\] matches no kind"):
        decompose_blocks([V1, V2A, V3, V4, V1])  # last block, lone V2 + V3 V4


def test_last_block_tail_shape_on_solved_instances():
    """The last block's tail is always empty or one V4, so the narrow and
    broad readings of Kind 4 coincide on real partitions."""
    seen_blocks = 0
    for d, n, seed in itertools.product((6, 5), (14, 28, 42), range(8)):
        g = gen_random_regular(n, d, seed=seed)
        report = solve(g, seed=seed + 13)
        p = report.partition
        vc = classify_vertices(g, p, classify_edges(g, p))
        for cid in p.sorted_ids():
            comp = p.components[cid]
            if comp.kind != PATH:
                continue
            blocks = decompose_blocks([vc.cls[v] for v in comp.vertices])
            seen_blocks += len(blocks)
            for blk in blocks:
                tail = [vc.cls[comp.vertices[j]] for j in blk.p_positions]
                if blk.last:
                    assert tail in ([], [V4])
                    assert blk.kind == 4
                else:
                    assert tail in ([V3], [V4, V4])
                    assert blk.kind in (1, 2, 3)
    assert seen_blocks > 0
