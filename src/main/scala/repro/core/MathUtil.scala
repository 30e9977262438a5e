package repro.core

/** Numeric substrate shared by the inference and assignment modules.
  *
  * Everything here except the [[Moments]] accumulator is a pure function.
  */
object MathUtil {

  /** Gauss error function via the Abramowitz–Stegun 7.1.26 rational
    * approximation (|error| < 1.5e-7 — far below what the EM fixpoint
    * resolves). `erf(-x) = -erf(x)`.
    */
  def erf(x: Double): Double = {
    val sign = if (x < 0) -1.0 else 1.0
    val ax   = math.abs(x)
    val t    = 1.0 / (1.0 + 0.3275911 * ax)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t
      - 0.284496736) * t + 0.254829592) * t * math.exp(-ax * ax)
    sign * y
  }

  /** Worker-correctness probability of the T-Crowd model:
    * q = erf(eps / sqrt(2 * variance)), clamped away from {0, 1} so that
    * log-likelihood terms stay finite.
    */
  def quality(eps: Double, variance: Double): Double =
    clampProb(erf(eps / math.sqrt(2.0 * math.max(variance, 1e-12))))

  /** Clamp a probability into the open interval (1e-9, 1 - 1e-9). */
  def clampProb(p: Double): Double = math.min(1.0 - 1e-9, math.max(1e-9, p))

  /** Shannon entropy (nats) of a discrete distribution; zero entries skipped. */
  def shannonEntropy(probs: Array[Double]): Double = {
    var s = 0.0
    var t = 0
    while (t < probs.length) {
      val p = probs(t)
      if (p > 0) s += p * math.log(p)
      t += 1
    }
    -s
  }

  /** Differential entropy (nats) of N(mu, variance): 0.5 * ln(2*pi*e*var). */
  def differentialEntropy(variance: Double): Double =
    0.5 * math.log(2.0 * math.Pi * math.E * math.max(variance, 1e-300))

  /** Numerically-stable softmax over raw log-scores, as a new array; the
    * exponentials are summed left to right.
    */
  def softmax(scores: Array[Double]): Array[Double] = {
    val p = new Array[Double](scores.length)
    var m = Double.NegativeInfinity
    var i = 0
    while (i < p.length) { m = math.max(m, scores(i)); i += 1 }
    var z = 0.0
    i = 0
    while (i < p.length) { p(i) = math.exp(scores(i) - m); z += p(i); i += 1 }
    i = 0
    while (i < p.length) { p(i) /= z; i += 1 }
    p
  }

  /** Index of the largest entry; ties go to the smallest index. */
  def argmax(xs: Array[Double]): Int = {
    var best = 0
    var i = 1
    while (i < xs.length) {
      if (xs(i) > xs(best)) best = i
      i += 1
    }
    best
  }

  /** Upper quantile of the chi-square distribution via the Wilson–Hilferty
    * cube approximation — accurate to a few percent for df >= 1, which is
    * all CATD's confidence weights need.
    *
    * @param p  cumulative probability (e.g. 0.975)
    * @param df degrees of freedom (number of answers by a worker)
    */
  def chiSquareQuantile(p: Double, df: Int): Double = {
    require(df >= 1, s"chiSquareQuantile needs df >= 1, got $df")
    val z = standardNormalQuantile(p)
    val k = df.toDouble
    val a = 2.0 / (9.0 * k)
    k * math.pow(1.0 - a + z * math.sqrt(a), 3)
  }

  /** Standard normal quantile via Acklam's rational approximation
    * (|rel. error| < 1.15e-9 on (0,1)).
    */
  def standardNormalQuantile(p: Double): Double = {
    require(p > 0 && p < 1, s"quantile needs p in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }

  /** Density of N(mu, variance) at x. */
  def normalPdf(x: Double, mu: Double, variance: Double): Double = {
    val v = math.max(variance, 1e-12)
    math.exp(-(x - mu) * (x - mu) / (2.0 * v)) / math.sqrt(2.0 * math.Pi * v)
  }

  /** Population moments of paired samples `(x, y)`, updated with the rule
    * of Spark's `var_pop`/`covar_pop` (Welford). A constant sample has
    * variance exactly 0; a plain two-pass mean can miss a constant by an ulp
    * (three samples of 0.1) and leave a tiny positive variance.
    */
  final class Moments {
    var n = 0L
    var meanX, meanY, cxx, cyy, cxy = 0.0
    def add(x: Double, y: Double): Unit = {
      n += 1
      val dx = x - meanX; val dy = y - meanY
      meanX += dx / n; meanY += dy / n
      cxx += dx * (x - meanX); cyy += dy * (y - meanY); cxy += dx * (y - meanY)
    }
    def add(x: Double): Unit = add(x, x)
    def varX: Double = cxx / n
    def varY: Double = cyy / n
    def cov: Double  = cxy / n
    /** Pearson correlation of x and y; 0 if either sample is constant. */
    def correlation: Double = if (varX <= 0 || varY <= 0) 0.0 else cov / math.sqrt(varX * varY)
  }
}
