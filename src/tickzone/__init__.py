"""Market microstructure toolkit for large-tick assets.

The traded price of a large-tick asset hugs a one-tick grid while the
efficient price diffuses underneath; the gap between the two is governed by
a single zone ratio. This package simulates that mechanism, estimates the
ratio and the implicit spread from trade tapes, relates quoted spreads to
volatility per trade across assets, and inverts the relation to score and
choose tick values.
"""

from .domain import (
    NO_QUOTE,
    SUBTICKS_PER_TICK,
    AssetSpec,
    TickGrid,
    TradeTape,
)
from .errors import (
    CollinearityError,
    DegenerateTapeError,
    DomainError,
    IngestError,
    InsufficientDataError,
    OffGridError,
    ParameterError,
    PartialDataError,
    TapeError,
    TickzoneError,
)
from .estimators import (
    ETA_FLAG_THRESHOLD,
    AlternationCounts,
    DailyRecord,
    build_daily_record,
    count_alternations,
    empirical_roll_measure,
    estimate_eta,
    estimate_integrated_variance,
    recover_efficient_prices,
    roll_implicit_measure,
    signature_plot,
    spread_stats,
)
from .pipeline import (
    PipelineConfig,
    SyntheticAsset,
    load_config,
    parse_config_text,
    read_daily_records_csv,
    run_pipeline,
)
from .regression import (
    REGRESSION_CSV_HEADER,
    RegressionFit,
    design_matrix,
    fit_spread_vol,
)
from .simulator import (
    EfficientPathSpec,
    TapeConfig,
    TrueParams,
    equilibrium_fill_rate,
    simulate_day,
)
from .tick_policy import (
    BETA_PRESETS,
    TickScenario,
    check_large_tick_regime,
    crossing_probabilities,
    load_reference_assets,
    market_order_cost,
    optimal_tick,
    predict_eta,
    scale_trade_count,
)
from .tradefile import (
    TRADE_CSV_HEADER,
    SessionFilter,
    ingest_trades,
    write_tape_csv,
)

__version__ = "0.1.0"
