"""Model zoo implementing the paper's workloads.

* :class:`MultinomialLogisticRegression` — convex model for the synthetic,
  MNIST-like and FEMNIST-like datasets (closed-form gradients).
* :class:`MLPClassifier` — small non-convex feed-forward model (ablations).
* :class:`CharLSTM` — Shakespeare-style next-character prediction.
* :class:`SentimentLSTM` — Sent140-style binary sentiment classification.
"""

from .. import _lazy

_lazy.attach(globals(), {
    ".base": ("FederatedModel", "LSTM_BACKENDS", "SEQ_EVAL_BLOCK_ROWS"),
    ".neural": ("NeuralModel",),
    ".logistic": ("MultinomialLogisticRegression",),
    ".mlp": ("MLPClassifier",),
    ".charlstm": ("CharLSTM",),
    ".sentlstm": ("SentimentLSTM",),
})
