"""Decision-tree learning over multi-table relational data.

The learner interleaves tree growth with feature construction: aggregation
features over foreign-key join paths are materialized lazily, only where the
tree needs them, with join results cached per node and reused down the tree.
An eager propositionalizer that flattens every path up front is included as
baseline and correctness oracle.
"""

from .eager import (
    BudgetExceededError,
    FlatTable,
    enumerate_paths,
    export_flat_csv,
    manifest_lines,
    propositionalize,
    train_flat,
    write_manifest,
)
from .evaluate import (
    CvReport,
    SchoolSpec,
    cross_validate,
    generate_school_db,
    stratified_folds,
    write_school_dataset,
)
from .features import (
    Agg,
    FeatureColumn,
    FeatureDescriptor,
    contains_enabled,
    features_for_path,
)
from .joinpath import (
    Hop,
    JoinInstantiation,
    JoinPath,
    candidate_extensions,
    extend_instantiation,
    initial_paths,
    instantiate,
    project_values,
    root_instantiation,
)
from .ldt import InvalidSplitError, LocalDataTable, build_root_ldt, extend_ldt, partition_ldt, split_rows
from .params import LearnParams
from .schema import (
    SchemaCatalog,
    SchemaError,
    fingerprint,
    is_associative,
    load_schema,
    neighbors,
    table_depths,
)
from .storage import (
    Database,
    DataError,
    LoadOptions,
    build_database,
    load_database,
    rows_matching,
)
from .tree import (
    ModelFormatError,
    ModelMismatchError,
    SplitTest,
    TreeModel,
    best_split,
    deserialize_model,
    entropy,
    grow_tree,
    predict,
    predict_many,
    serialize_model,
)

__version__ = "0.1.0"
