"""Synthetic SPEC CPU2000 announcement archive (the paper's real-system data).

Substitutes the SPEC website's published results with a calibrated
generator: the same 32-parameter record schema, SPECint/SPECfp rates
computed as geometric means of per-application ratios, per-family
technology histories, and the §4.1 count/range/variation profiles.
"""

from repro.specdata.families import FAMILIES, FAMILY_ORDER, ProcessorFamily, YearTech, get_family
from repro.specdata.generator import generate_family_records
from repro.specdata.ratings import (
    FP_APPS,
    INT_APPS,
    SpecApp,
    SystemPerformance,
    compute_app_ratios,
)
from repro.specdata.io import write_records_csv
from repro.specdata.schema import PARAMETER_FIELDS, SystemRecord, records_to_dataset

__all__ = [
    "FAMILIES",
    "FAMILY_ORDER",
    "ProcessorFamily",
    "YearTech",
    "get_family",
    "generate_family_records",
    "FP_APPS",
    "INT_APPS",
    "SpecApp",
    "SystemPerformance",
    "compute_app_ratios",
    "write_records_csv",
    "PARAMETER_FIELDS",
    "SystemRecord",
    "records_to_dataset",
]
