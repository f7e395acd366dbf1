#include "core/nlos.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "sim/scenario.hpp"

namespace hyperear::core {
namespace {

sim::ScenarioConfig base_config() {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  return c;
}

/// The scenario of examples/nlos_recovery.cpp: 0.03 blocks the direct
/// path, 1.0 leaves it clear.
sim::ScenarioConfig example_config(double direct_gain) {
  sim::ScenarioConfig c;
  c.phone = sim::galaxy_s4();
  c.environment = sim::meeting_room_quiet();
  c.speaker_distance = 5.0;
  c.slides_per_stature = 4;
  c.jitter = sim::hand_jitter();
  c.render.direct_path_gain = direct_gain;
  return c;
}

sim::Session make_session(const sim::ScenarioConfig& c, std::uint64_t seed) {
  Rng rng(seed);
  return sim::make_localization_session(c, rng);
}

/// ASP and the offline echo-competition pass on one plan, as the example
/// runs them.
struct Checked {
  AspResult asp;
  std::vector<double> echo;
};

Checked run_checked(const sim::Session& s) {
  const AspOptions options;
  const PipelineContext context(options, s.prior.chirp, s.audio.sample_rate);
  Checked c;
  c.asp = preprocess_audio(s.audio, s.prior.chirp, 0.2, s.prior.calibration_duration,
                           options, &context);
  c.echo = echo_competition(context.detector(), s.audio.mic1, c.asp.mic1);
  return c;
}

NlosAssessment assess(const sim::Session& s) {
  const Checked c = run_checked(s);
  return assess_line_of_sight(c.asp, c.echo);
}

/// Synthetic events carry no recording: their echo competition is 0.
NlosAssessment assess_synthetic(const AspResult& asp) {
  return assess_line_of_sight(asp, std::vector<double>(asp.mic1.size(), 0.0));
}

TEST(Nlos, LineOfSightSessionLooksClean) {
  const NlosAssessment a = assess(make_session(base_config(), 401));
  ASSERT_TRUE(a.enough_data);
  EXPECT_FALSE(a.suspected);
  EXPECT_LT(a.tdoa_mad_s, 40e-6);
}

TEST(Nlos, BlockedDirectPathDetected) {
  sim::ScenarioConfig c = base_config();
  c.render.direct_path_gain = 0.03;  // a cabinet between user and beacon
  const NlosAssessment a = assess(make_session(c, 402));
  ASSERT_TRUE(a.enough_data);
  EXPECT_TRUE(a.suspected);
  // The winning reflections keep their bearing and their strength, so the
  // TDoA and amplitude cues stay quiet; echo competition catches them.
  const NlosOptions options;
  EXPECT_LT(a.tdoa_mad_s, options.tdoa_mad_threshold_s);
  EXPECT_LT(a.amplitude_dispersion, options.amplitude_dispersion_threshold);
  EXPECT_GT(a.echo_competition, options.echo_competition_threshold);
}

TEST(Nlos, TooFewEventsNoVerdict) {
  AspResult asp;
  asp.mic1.push_back({1.0, 0.9, 1.0});
  asp.mic2.push_back({1.0, 0.9, 1.0});
  const NlosAssessment a = assess_synthetic(asp);
  EXPECT_FALSE(a.enough_data);
  EXPECT_FALSE(a.suspected);
}

TEST(Nlos, OneEchoRatioPerMic1Event) {
  AspResult asp;
  asp.mic1.push_back({1.0, 0.9, 1.0});
  EXPECT_THROW((void)assess_line_of_sight(asp, {}), PreconditionError);
}

TEST(Nlos, SyntheticStableTdoasPass) {
  AspResult asp;
  for (int i = 0; i < 20; ++i) {
    asp.mic1.push_back({0.1 + 0.2 * i, 0.9, 1.0});
    asp.mic2.push_back({0.1 + 0.2 * i + 1e-4, 0.9, 1.0});
  }
  const NlosAssessment a = assess_synthetic(asp);
  ASSERT_TRUE(a.enough_data);
  EXPECT_FALSE(a.suspected);
  EXPECT_NEAR(a.tdoa_mad_s, 0.0, 1e-9);
}

TEST(Nlos, SyntheticJumpyTdoasTrip) {
  AspResult asp;
  for (int i = 0; i < 20; ++i) {
    // Dominant arrival flips between two reflections with very different
    // bearings: inter-mic TDoA jumps by ~0.3 ms.
    const double tdoa = (i % 2 == 0) ? 1.5e-4 : -1.5e-4;
    asp.mic1.push_back({0.1 + 0.2 * i, 0.9, 1.0});
    asp.mic2.push_back({0.1 + 0.2 * i - tdoa, 0.9, 1.0});
  }
  const NlosAssessment a = assess_synthetic(asp);
  ASSERT_TRUE(a.enough_data);
  EXPECT_TRUE(a.suspected);
  EXPECT_GT(a.tdoa_mad_s, 1e-4);
}

TEST(Nlos, NlosDegradesLocalizationAsExpected) {
  // Sanity link to the pipeline: when the LoS test trips, the localization
  // really is untrustworthy.
  Rng rng(403);
  sim::ScenarioConfig c = base_config();
  c.render.direct_path_gain = 0.03;
  const sim::Session s = sim::make_localization_session(c, rng);
  const LocalizationResult r = localize(s);
  if (r.valid) {
    EXPECT_GT(localization_error(r, s), 0.4);  // far worse than LoS (~0.1)
  }
}

// The mic1 echo competition of every event of four sessions, as the
// detector's chunk stitch computed it when the ratio was a detection
// field: the two sessions above (seeds 401, 402) and the two attempts of
// examples/nlos_recovery.cpp (seeds 5050, 5051).
constexpr double kEcho401[] = {
    0.28109241877879004, 0.27264506614541911, 0.27856320300185927,
    0.26730621957155115, 0.28270475153555535, 0.2709283737471867,
    0.28348813960040614, 0.2716820395089522, 0.27783975087732121,
    0.27995445316397183, 0.27694291020102024, 0.27956497967475424,
    0.27152329339346382, 0.28609717188538342, 0.27081479341989562,
    0.2861613642430007, 0.29625414581184306, 0.2941291498679251,
    0.2733804328911269, 0.26011437486208921, 0.25616558068878065,
    0.26040799600067971, 0.2552602804670539, 0.26345490998507504,
    0.24790437568812257, 0.27561190309218786, 0.28183078313598342,
    0.28005608119582681, 0.28220106464221928, 0.28214450143467057,
    0.26979672838400071, 0.28480308282630962, 0.27187968853224381,
    0.28763545175847471, 0.29853949072719238, 0.28386822470687412,
    0.27238407000154696, 0.25454862621422902, 0.26646623353969895,
    0.25217293865060769, 0.25734466152470004, 0.25560179024354451,
    0.25205946134709556, 0.26183311426319722,
};
constexpr double kEcho402[] = {
    0.58928962268893481, 0.53938066596153345, 0.54994601988463709,
    0.54174783480144839, 0.55214638416552342, 0.53796048285695441,
    0.57880364830609143, 0.56728701775807966, 0.53554447181307208,
    0.53139513725334908, 0.5497023094960829, 0.54094972990012602,
    0.58175537923706755, 0.56144091494264337, 0.5493526849563245,
    0.49508448180357606, 0.40976093870364455, 0.43004483189324733,
    0.51887117410506012, 0.48127410496035877, 0.47325110561334849,
    0.46366935817937432, 0.4567999058474988, 0.46804533532398551,
    0.48885866871929146, 0.41620771429886821, 0.43439123581031364,
    0.56293009694384188, 0.55506079450739765, 0.57993245664009041,
    0.54454080113511827, 0.58498642179088556, 0.54050393708190647,
    0.48461236103477534, 0.39496168044391128, 0.43794532162085381,
    0.52588790371745475, 0.47935973836225676, 0.46314241289477193,
    0.45143573038906193, 0.47255950552099679, 0.48453624755060432,
    0.49000293259958794, 0.49577558496782204,
};
constexpr double kEcho5050[] = {
    0.50054382455209356, 0.48903302956792449, 0.49907521436624042,
    0.50437842675159461, 0.52135024250977646, 0.50310357306711673,
    0.49754781846294249, 0.50310882498723564, 0.49913740737091156,
    0.49783675996872639, 0.48568416481351417, 0.48539279255977569,
    0.46806854301415995, 0.49269538586710887, 0.48923053826760715,
    0.49081782751360897, 0.49408908370693388, 0.49921054141930871,
    0.49923212170416542, 0.48439597408257545, 0.52345645509586924,
    0.41838882822535289, 0.38531506052047393, 0.537515726266244,
    0.45683739130380874, 0.46151859857378585, 0.45592403074461568,
    0.44521222617480216, 0.45586807516349376, 0.46778728777001466,
    0.57387918909573987, 0.37921207832518233, 0.43849831718652199,
    0.50806574165912455, 0.50239298471264537, 0.52374871530417688,
    0.49823027252521374, 0.51345055040989462, 0.48870522168031366,
    0.40077407033373602, 0.41660400648076756, 0.3932623433083679,
    0.54259133293834061, 0.52715201062996364, 0.52585435872450637,
    0.52241374960222364, 0.52065242539916345, 0.56869005607095402,
    0.3827607996805058, 0.3868777879301748, 0.43177812289977241,
    0.49414011089192, 0.49540256806740551, 0.52179290064707529,
    0.52055027738118209, 0.50112480914218638, 0.53745072132727045,
    0.51899956330926689,
};
constexpr double kEcho5051[] = {
    0.3043526716177648, 0.30528060592382172, 0.29587638640375474,
    0.30921263913709224, 0.3121483104517605, 0.31189444350481715,
    0.31180072933094843, 0.3123122909284608, 0.31507888625057695,
    0.31696661722386243, 0.30807631769075466, 0.30642101692252743,
    0.3009537304157604, 0.29299327198441005, 0.30522924009622976,
    0.30259209553871014, 0.30809183200839885, 0.31177658291044841,
    0.3053321922330765, 0.31367221267175904, 0.30294520205383707,
    0.31268746916130857, 0.29950097644364743, 0.28649255637756582,
    0.3028732713721442, 0.29714266184114391, 0.29986223910649445,
    0.30230682885376559, 0.3040079881616562, 0.3029344334849729,
    0.28042125783383309, 0.29803179258490664, 0.30512479513982704,
    0.31626026494395459, 0.30663475676466717, 0.30863328664666884,
    0.30843274337407106, 0.30179350244611336, 0.29369925774759742,
    0.29230433832997638, 0.30400234814632215, 0.28352349012761774,
    0.29523282877024237, 0.29928380909882613, 0.29723889398948766,
    0.29359663831762423, 0.28389245027693732, 0.28171793677466966,
    0.29693935379106728, 0.30815367568911117, 0.2893372067867096,
    0.3127686433017412, 0.31764459298122771, 0.31591721079779317,
    0.32001074482624137, 0.31878101308992857, 0.31306709930813431,
    0.31615201755133215,
};

TEST(Nlos, OfflineEchoCompetitionMatchesTheStitchedRatios) {
  sim::ScenarioConfig blocked = base_config();
  blocked.render.direct_path_gain = 0.03;
  const struct {
    sim::ScenarioConfig config;
    std::uint64_t seed;
    std::span<const double> want;
  } cases[] = {
      {base_config(), 401, kEcho401},
      {blocked, 402, kEcho402},
      {example_config(0.03), 5050, kEcho5050},
      {example_config(1.0), 5051, kEcho5051},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.seed);
    const Checked got = run_checked(make_session(c.config, c.seed));
    ASSERT_EQ(got.echo.size(), c.want.size());
    for (std::size_t i = 0; i < c.want.size(); ++i) {
      EXPECT_NEAR(got.echo[i], c.want[i], 1e-9 * c.want[i]) << "event " << i;
    }
  }
}

}  // namespace
}  // namespace hyperear::core
