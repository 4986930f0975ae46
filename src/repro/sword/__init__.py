"""SWORD online phase: bounded buffers, compression, trace logging."""

from .buffer import EventBuffer
from .integrity import IntegrityReport, ThreadIntegrity
from .logger import SwordTool
from .reader import ThreadTraceReader, TraceDir
from .traceformat import (
    TRACE_FORMAT_VERSION,
    BlockHeader,
    MetaRow,
    format_meta_file,
    log_name,
    meta_name,
    pack_frame,
    parse_meta_table,
    unpack_frame_header,
)

__all__ = [
    "TRACE_FORMAT_VERSION",
    "BlockHeader",
    "EventBuffer",
    "IntegrityReport",
    "MetaRow",
    "SwordTool",
    "ThreadIntegrity",
    "ThreadTraceReader",
    "TraceDir",
    "format_meta_file",
    "log_name",
    "meta_name",
    "pack_frame",
    "parse_meta_table",
    "unpack_frame_header",
]
