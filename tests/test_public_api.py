"""The public API surface: every documented export must import and be
reachable from its documented location.

This guards against refactors silently breaking downstream users — the
README and DESIGN.md promise these names.
"""

import importlib

import pytest

EXPECTED_EXPORTS = {
    "repro": [
        "AVQCode", "AVQQuantizer", "BlockCodec", "OrdinalMapper",
        "build_codebook", "__version__",
    ],
    "repro.core": [
        "BlockCodec", "OrdinalMapper", "phi_array", "phi_inverse_array",
        "TupleLayout", "rle_encode", "rle_decode", "AVQCode", "AVQQuantizer",
        "build_codebook", "STRATEGIES", "get_strategy", "tuple_difference",
        "ordinal_difference", "difference_tuple", "apply_difference",
        "FastGapSizer", "fast_blocks_needed", "fast_pack_boundaries",
        "GolombBlockCodec", "choose_rice_parameter",
        "SERIAL_THRESHOLD", "ParallelBlockCodec", "encode_blocks",
        "decode_blocks", "decode_ordinal_blocks", "resolve_workers",
    ],
    "repro.vq": [
        "squared_error", "mean_squared_distortion", "lbg_codebook",
        "LBGResult", "LossyVectorQuantizer",
    ],
    "repro.relational": [
        "Domain", "IntegerRangeDomain", "CategoricalDomain", "StringDomain",
        "Attribute", "Schema", "Relation", "SchemaInferencer",
        "encode_relation", "RangePredicate", "select", "project",
        "count_matching",
    ],
    "repro.storage": [
        "DEFAULT_BLOCK_SIZE", "Block", "DiskModel", "DiskStats",
        "SimulatedDisk", "BufferPool", "BufferStats", "DecodedBlockCache",
        "PackStats", "PackedPartition", "pack_ordinals", "pack_relation",
        "pack_runs", "HeapFile", "AVQFile", "PARALLEL_BATCH_RUNS",
        "external_sort_ordinals", "bulk_load",
    ],
    "repro.index": [
        "BPlusTree", "Bucket", "PrimaryIndex", "SecondaryIndex",
        "ExtendibleHashIndex",
    ],
    "repro.db": [
        "Catalog", "Database", "Table", "RangeQuery", "QueryResult",
        "AccessPlan", "QueryPlanner", "AttributeHistogram",
        "TableStatistics", "aggregate", "AggregateResult", "JoinResult",
        "index_nested_loop_join", "block_nested_loop_join",
        "Transaction",
    ],
    "repro.workload": [
        "SAMPLERS", "get_sampler", "uniform_values", "skewed_values",
        "zipf_values", "RelationSpec", "generate_domain_sizes",
        "generate_relation", "paper_test_spec", "paper_timing_spec",
        "paper_query_sweep", "range_query_for_attribute",
        "random_range_queries",
    ],
    "repro.perf": [
        "PAPER_T1_MS", "INDEX_BLOCK_FRACTION", "index_search_time_s",
        "response_time_s", "improvement_percent", "ResponseTimeRow",
        "response_time_table", "MachineProfile", "HP_9000_735", "SUN_4_50",
        "DEC_5000_120", "PAPER_MACHINES", "calibrated_profile",
        "mean_time_ms", "WorkloadCost",
        "simulate_workload",
        "predicted_workload_cost",
    ],
    "repro.baselines": [
        "BaselineCodec", "NoCodingBaseline", "NaturalWidthBaseline",
        "RawRLEBaseline", "SortedRLEBaseline", "BitTransposedBaseline",
        "GolombBaseline", "AVQBaseline",
    ],
    "repro.experiments": [
        "TEST_CONFIGS", "PAPER_REDUCTIONS", "run_figure_57", "run_figure_58",
        "measure_local_codec", "measure_parallel_codec",
        "ParallelCodecTimings", "paper_response_table",
        "measured_response_table", "format_fig57", "format_fig58",
        "format_fig59", "format_parallel_codec", "paper_ordinals",
        "paper_relation", "paper_blocks",
    ],
    "repro.obs": [
        "MetricsRegistry", "Counter", "Gauge", "Histogram", "Span",
        "Tracer", "QueryProfile", "QueryProfiler", "StatsSnapshot",
        "snapshot_dataclass", "prometheus_text", "jsonl_lines",
        "write_jsonl", "stats_table",
    ],
    "repro.io": [
        "write_avq_file", "read_avq_file", "AVQFileReader", "read_csv_rows",
        "write_csv_rows", "schema_to_dict", "schema_from_dict",
    ],
}


@pytest.mark.parametrize("module_name", sorted(EXPECTED_EXPORTS))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in EXPECTED_EXPORTS[module_name]:
        assert hasattr(module, name), f"{module_name} lacks {name}"
    declared = getattr(module, "__all__", None)
    assert declared is not None, f"{module_name} has no __all__"
    for name in EXPECTED_EXPORTS[module_name]:
        if name != "__version__":
            assert name in declared, f"{module_name}.__all__ lacks {name}"


def test_version_is_semver():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_cli_entry_point_importable():
    from repro.cli import build_parser, main  # noqa: F401

    parser = build_parser()
    assert parser.prog == "python -m repro"
