package repro.crowd

import org.apache.spark.sql.SparkSession
import repro.core.CrowdDataset

/** Synthetic surrogates of the paper's three real datasets (Table 6).
  *
  * The real crowd answers (AMT collections for Celebrity/Restaurant, Snow et
  * al.'s annotations for Emotion) are not redistributable; these surrogates
  * match Table 6's shape exactly — #rows, #columns, #cells, answers-per-task,
  * and the categorical/continuous datatype mix described in §6.1 — and draw
  * answers from the worker model documented in [[SimConfig]]. See DESIGN.md
  * §3 for why this preserves the behaviour under test.
  */
object Surrogates {

  /** Celebrity: 174 rows x 7 columns = 1218 cells, 5 answers/task.
    * name/nationality/ethnicity categorical; age/height/notability/facial
    * continuous (§6.1).
    */
  def celebrityConfig(): SimConfig = SimConfig(
    name = "Celebrity",
    numRows = 174,
    columns = Seq(
      SimColumn("name", numLabels = 40, beta = 1.2),
      SimColumn("nationality", numLabels = 20, beta = 0.9),
      SimColumn("ethnicity", numLabels = 6, beta = 0.8),
      SimColumn("age", 0, lo = 18, hi = 80, beta = 1.1),
      SimColumn("height", 0, lo = 4.8, hi = 6.9, beta = 0.9),
      SimColumn("notability", 0, lo = 0, hi = 10, beta = 1.3),
      SimColumn("facial", 0, lo = 0, hi = 10, beta = 1.0),
    ),
    numWorkers = 50,
    answersPerTask = 5,
    seed = 7L,
    // Celebrity is the paper's hardest categorical dataset (ER ~ 0.05);
    // without extra difficulty the surrogate's MV is near-perfect and the
    // quality model has nothing to correct.
    difficultyScale = 1.6,
    spammerFrac = 0.2,
  )

  /** Restaurant: 203 rows x 5 columns = 1015 cells, 4 answers/task.
    * aspect/attribute/sentiment categorical; start/end target positions
    * continuous (§6.1). The shared row-effect gives start/end the strong
    * positive error correlation the paper reports in §6.4.3.
    */
  def restaurantConfig(seed: Long = 11L): SimConfig = SimConfig(
    name = "Restaurant",
    numRows = 203,
    columns = Seq(
      SimColumn("aspect", numLabels = 5, beta = 1.0),
      SimColumn("attribute", numLabels = 4, beta = 1.1),
      SimColumn("sentiment", numLabels = 3, beta = 0.8),
      SimColumn("startTarget", 0, lo = 0, hi = 150, beta = 1.0),
      SimColumn("endTarget", 0, lo = 0, hi = 160, beta = 1.0),
    ),
    numWorkers = 40,
    answersPerTask = 4,
    seed = seed,
    rowEffectSd = 0.6,
  )

  /** Emotion: 100 rows x 7 columns = 700 cells, 10 answers/task. All seven
    * attributes continuous: six emotions in [0,100], valence in [-100,100]
    * (§6.1).
    */
  def emotionConfig(): SimConfig = SimConfig(
    name = "Emotion",
    numRows = 100,
    columns = Seq(
      SimColumn("anger", 0, lo = 0, hi = 100, beta = 1.0),
      SimColumn("disgust", 0, lo = 0, hi = 100, beta = 1.1),
      SimColumn("fear", 0, lo = 0, hi = 100, beta = 1.0),
      SimColumn("joy", 0, lo = 0, hi = 100, beta = 0.9),
      SimColumn("sadness", 0, lo = 0, hi = 100, beta = 1.0),
      SimColumn("surprise", 0, lo = 0, hi = 100, beta = 1.2),
      SimColumn("valence", 0, lo = -100, hi = 100, beta = 1.0),
    ),
    numWorkers = 38,
    answersPerTask = 10,
    seed = 13L,
  )

  def celebrity(spark: SparkSession): CrowdDataset = new CrowdSim(celebrityConfig()).dataset(spark)
  def restaurant(spark: SparkSession): CrowdDataset = new CrowdSim(restaurantConfig()).dataset(spark)
  def emotion(spark: SparkSession): CrowdDataset = new CrowdSim(emotionConfig()).dataset(spark)

  def all(spark: SparkSession): Seq[CrowdDataset] =
    Seq(celebrity(spark), restaurant(spark), emotion(spark))
}
