"""Gradient-boosted decision trees built from scratch, in three growth
flavors (level-wise, leaf-wise with GOSS/EFB, oblivious with ordered
boosting), plus the statistical toolkit and dataset recipes around them.
"""

from .boosting import (BoostConfig, Classifier, Ensemble, TrainingFeatures,
                       compute_gradients, init_base_score, load_model,
                       prepare_features, save_model, train, train_classifier)
from .dataset import (BinnedDataset, ColumnSchema, Dataset, DatasetError,
                      RecipeSpec, add_ratio_column, apply_recipe, bin_features,
                      drop_missing, filter_rows, load_csv, one_hot_encode,
                      retype_target, train_test_split, write_csv)
from .growers import (DecisionTree, Histogram, NodeStats, SplitCandidate,
                      build_histogram, find_best_split_histogram,
                      find_best_split_presorted, grow_leaf_wise,
                      grow_level_wise, grow_oblivious, leaf_weight, split_gain)
from .recipes import (ReplicationRecipe, available_recipes, load_recipe,
                      run_recipe)
from .special import gamma_q, incomplete_beta
from .stats import (AnovaTable, ChiSquaredResult, ContingencyTable,
                    CorrelationMatrix, FeatureImportanceReport,
                    chi_squared_test, contingency_table, feature_importance,
                    group_summary, one_way_anova, pearson_correlation_matrix,
                    two_way_anova)
from .strategies import (FeatureBundle, GossSample, OrderedSchedule, efb_bundle,
                         efb_decode, efb_encode, goss_select,
                         goss_variance_gain, ordered_gradients,
                         ordered_schedule)

__version__ = "0.1.0"
