"""Outage and throughput analysis for RIS-assisted links with RIS thermal noise."""

from .noise import (
    BOLTZMANN,
    NoiseBudget,
    SystemParams,
    build_noise_budget,
    db_from_watts,
    path_loss,
    receiver_noise_power,
    ris_noise_power,
    sinr_threshold,
    table2,
    watts_from_db,
)
from .fading import (
    CascadeApprox,
    cascade_moments,
    cdf_X,
    pdf_Y,
    sample_nakagami,
    y_gamma_params,
)
from .outage import (
    LinkModel,
    OutageReport,
    build_link_model,
    build_link_models,
    compose_outage,
    diversity_order,
    evaluate_mode,
    outage_asymptotic,
    outage_lb,
    outage_report,
    outage_reports,
    outage_ub,
    power_for_outage,
    throughput,
    xi1,
    xi1_closed,
    xi1_oracle,
    xi2,
)
from .mcsim import (
    McConfig,
    McEstimate,
    ThroughputEstimate,
    draw_realization,
    estimate_outage,
    estimate_outages,
    estimate_throughput,
    sinr_bounds,
    sinr_exact,
)
from .cli import ConfigError, SweepGrid, load_grid, run_sweep, validate

__version__ = "0.1.0"
