"""SWORD offline phase: concurrency recovery and interval-tree race analysis."""

from .analyzer import (
    AnalysisResult,
    AnalysisStats,
    analyze_trace,
    check_node_pair,
)
from .cache import ResultCache
from .engine import AnalysisEngine
from .intervals import IntervalData, IntervalInventory, IntervalKey
from .options import AnalysisOptions, FastPathOptions
from .oracle import oracle_races
from .report import RaceReport, RaceSet, make_report

__all__ = [
    "AnalysisEngine",
    "AnalysisOptions",
    "AnalysisResult",
    "AnalysisStats",
    "FastPathOptions",
    "IntervalData",
    "IntervalInventory",
    "IntervalKey",
    "RaceReport",
    "RaceSet",
    "ResultCache",
    "analyze_trace",
    "check_node_pair",
    "make_report",
    "oracle_races",
]
