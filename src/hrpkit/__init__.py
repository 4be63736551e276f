"""Toolkit for highly responsive /24 prefixes in IPv4 port-scan output.

Detects prefixes where nearly every address answers on a port, enriches
them with origin-AS context, analyzes them across ports, time, and vantage
points, joins application-layer outcomes, and builds sampling-aware target
plans that cut application-layer scan volume while keeping the unique
content identifiers reachable.

The names below, and the modules as attributes, are loaded lazily (PEP 562):
``import hrpkit`` imports no module, and each module is imported the first
time one of its names is used.
"""

__version__ = "0.1.0"

# home module -> the names it exports here
_EXPORTS = {
    "analytics": (
        "PersistenceSummary", "PortProfile", "PortProfileReport", "StabilityPoint", "VantageDiff",
        "persistence", "port_profile", "stability_series", "vantage_diff",
    ),
    "applayer": (
        "AddressComparison", "AppReportSet", "AppResults", "HrpAppReport", "SuccessCdf",
        "address_comparison", "hrp_app_report", "read_app_results", "success_cdf",
    ),
    "ingest": ("IngestError", "IngestStats", "ScanMeta", "format_ipv4", "open_scan_source", "parse_ipv4"),
    "planner": (
        "DnsSeed", "PlanEvaluationError", "PlanMetrics", "SamplePolicy", "TargetPlan", "build_plan",
        "classify_sample", "escalate", "evaluate_plan", "read_dns_seeds", "read_plan_csv",
        "write_plan_csv",
    ),
    "prefixes": (
        "HrpThreshold", "PrefixStats", "PrefixTable", "ResponsivenessHistogram", "aggregate", "classify",
        "hrp_address_share", "hrp_set", "merge", "read_prefix_stats", "responsiveness_histogram",
        "write_prefix_stats_csv", "write_prefix_stats_jsonl",
    ),
    "routing": (
        "AsSummary", "RouteParseError", "RoutingTable", "as_summary", "enrich", "load_route_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # __import__ rather than importlib.import_module, so that -X importtime times these imports too
    if name in _EXPORTS or name in ("cli", "fmt"):  # a module not imported yet
        return __import__(f"{__name__}.{name}", fromlist=[name])
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=[name]), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
