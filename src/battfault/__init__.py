"""Battery fault detection via masked-signal pretraining of a small BERT-style encoder.

Subpackages:
    numcore    -- seeded RNG + dense numerical primitives with backward passes
    dataio     -- snippet data model, CSV ingestion, normalization, splits, synthesis
    model      -- encoder network (embedding, transformer stack, reconstruction head),
                  finite-difference gradient checking through the same forward
    pretrain   -- point-level masked signal modeling, optimizer loop, checkpoints
    downstream -- frozen-encoder features + gradient-boosted tree classifier
    evalkit    -- AUROC, expected-cost, t-SNE, mixing diagnostics, report emission
    cli        -- batch command-line front end
"""

__version__ = "0.1.0"
