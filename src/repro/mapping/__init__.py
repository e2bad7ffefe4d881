"""Topology mapping: persistence, multi-vantage merging, archive
differencing (radar mode), and the subnet-level map graph the paper's
introduction motivates."""

from .diff import (
    ArchiveDiff,
    PathChange,
    SubnetChange,
    diff_archives,
    dirty_prefixes,
)
from .graph import (
    TopologyMap,
    annotate_same_lan,
    map_from_collections,
    render_adjacency,
)
from .merge import MergedSubnet, confirmed, coverage, merge_collections
from .store import (
    CollectionArchive,
    archive_from_dict,
    archive_from_tool,
    archive_signature,
    archive_to_dict,
    archives_equivalent,
    load_archive,
    save_archive,
    subnet_from_dict,
    subnet_to_dict,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "ArchiveDiff",
    "CollectionArchive",
    "MergedSubnet",
    "PathChange",
    "SubnetChange",
    "TopologyMap",
    "annotate_same_lan",
    "archive_from_dict",
    "diff_archives",
    "dirty_prefixes",
    "archive_from_tool",
    "archive_signature",
    "archive_to_dict",
    "archives_equivalent",
    "confirmed",
    "coverage",
    "load_archive",
    "map_from_collections",
    "merge_collections",
    "render_adjacency",
    "save_archive",
    "subnet_from_dict",
    "subnet_to_dict",
    "trace_from_dict",
    "trace_to_dict",
]
