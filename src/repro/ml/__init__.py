"""ML substrate: from-scratch classifiers replacing XGBoost."""

from .encoding import count_threshold_features, encode_dataset_rows, encode_reports, one_hot_columns
from .gradient_boosting import GradientBoostingClassifier, softmax
from .metrics import accuracy_score, confusion_matrix, per_class_recall
from .naive_bayes import BernoulliNaiveBayes
from .tree import BinaryFeatureRegressionTree, grow_forest

__all__ = [
    "BinaryFeatureRegressionTree",
    "grow_forest",
    "GradientBoostingClassifier",
    "BernoulliNaiveBayes",
    "softmax",
    "accuracy_score",
    "confusion_matrix",
    "per_class_recall",
    "encode_reports",
    "encode_dataset_rows",
    "one_hot_columns",
    "count_threshold_features",
]
