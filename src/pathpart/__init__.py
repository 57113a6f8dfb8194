"""Path partitions of regular graphs with exact-rational discharging certificates."""

from .classify import VertexClassification, classify_edges, classify_vertices
from .discharge import (RULES_D5, RULES_D6, AuditReport, Block, Certificate,
                        DischargeError, PointLedger, RuleSet, apply_rules,
                        audit_block_bounds, certify, decompose_blocks,
                        ruleset_for_degree)
from .graphs import (EdgeListParseError, GenerationError, Graph, GraphError,
                     contains_k6, gen_circulant, gen_complete_bipartite,
                     gen_disjoint_cliques, gen_random_regular, infer_degree,
                     read_edge_list, write_edge_list)
from .moves import (Move, MoveEngineError, SingletonEliminationError, apply_move,
                    eliminate_singletons, find_basic_move, find_compound_move,
                    find_derived_move, find_pair_move)
from .oracle import OracleResult, OracleUnknown, exact_pi_p
from .partition import (Component, PathPartition, partition_from_json,
                        partition_to_json, validate_partition)
from .solver import SolveReport, canonicalize, initial_partition, solve

__all__ = [name for name in dir() if not name.startswith("_")]
