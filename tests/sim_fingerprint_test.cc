// Golden bit-identity guard for the default simulation path. The placement
// layer is pluggable, but with the default (k-closest diversion) every
// refactor must reproduce these SHA-1 fingerprints exactly — the same
// 20-seed bank, in serial and overlapped (max_in_flight=4) mode, that the CI
// fingerprint harness records.
//
// If a change to placement, caching, or the lookup state machine breaks
// these on purpose (a deliberate default-behavior change), regenerate the
// table by printing schedule/state fingerprints for seeds 1..20 in both
// modes and say so in the PR.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/sim_runner.h"

namespace past {
namespace {

struct GoldenFingerprint {
  uint64_t seed;
  const char* schedule;
  const char* state;
};

constexpr GoldenFingerprint kSerialGolden[] = {
    {1, "db60572640d3680f0b6c9b10cd515f3392fc7dc6", "12f709844c4ab039f0ff795b48455cf74a80551a"},
    {2, "b7d19ec74cfb076233d14eb720409bd6a66f2ef1", "f76fb349b45a97558e49394de2cbc71f156fbb0e"},
    {3, "c79fa2e2572eb35b100ba39b6844f6e4d502ff70", "e93e426e8ba63f1eda2100970b2d153e84e3a8de"},
    {4, "14899a5c58205a1342eb665fae1dbebc49375cfa", "1414d694a716ac96ea64dd855844e8fee16d07be"},
    {5, "57c07e36b919459c548e0da1df7a98a0218c2b26", "65d8b64a87537c5b892df8fca4c216659ea44a03"},
    {6, "e05e90331627129d0853cca09beb50e67677ea72", "0360932fc4b8200214ecb47c212f8c3d372881fe"},
    {7, "575f4e50c6e937856481899b77e67ef903ff59c6", "d88660650550b970724ea75106ddfb31365c93bf"},
    {8, "449bbaada58fed8b20ea85fda95e4c8719f8571a", "15a3fb0d14bb78e9bc94c26205a44db4fa6d9255"},
    {9, "8a4e7b31f493390cc9651030dd7a7edf698e8eb1", "5186f6b96f9775f6b4795d62249a8176f2e5717b"},
    {10, "6a11205aa54b9192e35eb4adc3173add5d6146df", "ce7cec6cb8b292deb8f681f1a7270b0d82194229"},
    {11, "b54efc0162782df4ee211a6d747b502f2a4f2b95", "c1731cb9b7cf9d030e1e32d8333ff541b6a6412d"},
    {12, "c74bfded5cf881cbcf9d36f306eb360225a0ad38", "ac55e0ad60bd9f0b9b84d73742e734c9dd3ed463"},
    {13, "60d252e89cc6f9165e19489dc28f9d25bd38b908", "917eeee303973b729eaf9b3ab86e0ab5ebfe4810"},
    {14, "4e33d0ed5f124910dbd6707606a4e7f8189d62f7", "3aaced1cd8aad699490e310d4bd72e9a006d2989"},
    {15, "5fd62ce0ebc785ae401fb2894035d2ea5b4d7ef3", "9f5ecee6edacb91d5db8fd3a6dd501044ab2f3db"},
    {16, "ca4469584362f256a628e52476a48c7e268c4fc2", "a9cb25ee5d5b727039984b5c3739003c9c6a1e51"},
    {17, "42f216485cd7f4433b34a8740e96c6fadc433124", "12c749df6984f248e842ce2c99715e3d6c15fed1"},
    {18, "09ebb9d5af7c01f8c48ce7ed5cce593e0f7dc24b", "58efaa3e8ff2d9c6432ff8615c3e5386eaae8a23"},
    {19, "5c7240054c99c43f81ac59006787115c941bd93f", "1e726568f2c3b58d54facb990f9275a1cafd95b3"},
    {20, "65c1360810bbf5c701e6252c9a0bfdfb7662a50e", "e1864297eb99d76331f3d6372a54a64460ab2817"},
};

constexpr GoldenFingerprint kOverlapGolden[] = {
    {1, "db60572640d3680f0b6c9b10cd515f3392fc7dc6", "86fff864d1d07099f6f044be8591a2d762bc33bb"},
    {2, "b7d19ec74cfb076233d14eb720409bd6a66f2ef1", "85b6e6b202a50e4f6d99d9685e4d1a3056870ce5"},
    {3, "c79fa2e2572eb35b100ba39b6844f6e4d502ff70", "8eeb3e1782c440134c0096d73c3c60e222e0c6aa"},
    {4, "14899a5c58205a1342eb665fae1dbebc49375cfa", "706f0821051f9cfd554958fcf140c4cd8cf501d9"},
    {5, "57c07e36b919459c548e0da1df7a98a0218c2b26", "4e2a09e7491fc75769fe50f17adcfbfcd6f17a50"},
    {6, "e05e90331627129d0853cca09beb50e67677ea72", "6d7c6ca1eb293c0bce0dfc34db75817b0f4bd222"},
    {7, "575f4e50c6e937856481899b77e67ef903ff59c6", "4bdf00b08ce9bed2774682b692ebe0d62373365d"},
    {8, "449bbaada58fed8b20ea85fda95e4c8719f8571a", "c797ed46c7a0a2ec71970abb0dc3dc95e5032c4e"},
    {9, "8a4e7b31f493390cc9651030dd7a7edf698e8eb1", "d424bbce5c7b83d57aaf92b855636695ed0cd18d"},
    {10, "6a11205aa54b9192e35eb4adc3173add5d6146df", "77839f77406706f75c1dd24a04329a95d0f10c48"},
    {11, "b54efc0162782df4ee211a6d747b502f2a4f2b95", "ee5b48e4e3175d3b4eea9fc3049dbc1c58ff7729"},
    {12, "c74bfded5cf881cbcf9d36f306eb360225a0ad38", "4022c0276590506ec991d7eacf289e586333431e"},
    {13, "60d252e89cc6f9165e19489dc28f9d25bd38b908", "f80b1319f0d58e7a7ee6a628ca2ef79fe85b3c64"},
    {14, "4e33d0ed5f124910dbd6707606a4e7f8189d62f7", "fbf51ad1f2efb15c31fe7557ee36e0cf6f227a60"},
    {15, "5fd62ce0ebc785ae401fb2894035d2ea5b4d7ef3", "ec451d5bddce36fb573f5ef9eea5d38d27b963f4"},
    {16, "ca4469584362f256a628e52476a48c7e268c4fc2", "eb4b2a3953d41c435d302b7062903b63c35f9696"},
    {17, "42f216485cd7f4433b34a8740e96c6fadc433124", "1e4c8e4f009316e74079f39890049dd0af42df13"},
    {18, "09ebb9d5af7c01f8c48ce7ed5cce593e0f7dc24b", "cc47b8c105d2f9a25477bf02682f6f127329edac"},
    {19, "5c7240054c99c43f81ac59006787115c941bd93f", "fe6a3bfe8e6875c300b6bc0adaa9ccc13e758d8f"},
    {20, "65c1360810bbf5c701e6252c9a0bfdfb7662a50e", "eabecffb827b20764e9cb96ef76cce205b199546"},
};

class SerialGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(SerialGoldenSeeds, DefaultPathMatchesGoldenFingerprints) {
  const GoldenFingerprint& golden = kSerialGolden[GetParam()];
  SimConfig config;
  config.seed = golden.seed;
  SimResult result = SimRunner(config).Run();
  ASSERT_TRUE(result.ok) << "seed " << golden.seed << ": " << result.failure;
  EXPECT_EQ(result.schedule_fingerprint, golden.schedule) << "seed " << golden.seed;
  EXPECT_EQ(result.state_fingerprint, golden.state) << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Golden, SerialGoldenSeeds,
                         ::testing::Range(size_t{0}, std::size(kSerialGolden)));

class OverlapGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(OverlapGoldenSeeds, DefaultPathMatchesGoldenFingerprints) {
  const GoldenFingerprint& golden = kOverlapGolden[GetParam()];
  SimConfig config;
  config.seed = golden.seed;
  config.max_in_flight = 4;
  SimResult result = SimRunner(config).Run();
  ASSERT_TRUE(result.ok) << "seed " << golden.seed << ": " << result.failure;
  EXPECT_EQ(result.schedule_fingerprint, golden.schedule) << "seed " << golden.seed;
  EXPECT_EQ(result.state_fingerprint, golden.state) << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Golden, OverlapGoldenSeeds,
                         ::testing::Range(size_t{0}, std::size(kOverlapGolden)));

// The durable backend must be invisible when no storage fault fires: the
// journal draws no entropy and every commit succeeds, so a durable run is
// bit-identical to the in-memory default — the SAME golden table, not a
// parallel one.
class DurableGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(DurableGoldenSeeds, DurableBackendIsBitIdenticalToInMemory) {
  const GoldenFingerprint& golden = kSerialGolden[GetParam()];
  SimConfig config;
  config.seed = golden.seed;
  config.durable_store = true;
  SimResult result = SimRunner(config).Run();
  ASSERT_TRUE(result.ok) << "seed " << golden.seed << ": " << result.failure;
  EXPECT_EQ(result.schedule_fingerprint, golden.schedule) << "seed " << golden.seed;
  EXPECT_EQ(result.state_fingerprint, golden.state) << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Golden, DurableGoldenSeeds,
                         ::testing::Range(size_t{0}, std::size(kSerialGolden)));

// Crash-recover soak bank: durable stores plus kRecover events (weight 1.2)
// layered onto the standard timeline. Every seed must hold every invariant
// across repeated power-loss/rejoin cycles AND replay to these exact
// fingerprints — the whole WAL/replay/rejoin-audit path is deterministic.
constexpr GoldenFingerprint kRecoveryGolden[] = {
    {1, "02f93cb00240568746d986bdf59b728f7e0544a3", "b4593395f1d7b2ac29663fb89670ccec307a4f90"},
    {2, "a79691874949716c621658082677f8ace736d829", "a2de81137cbfbf3f2d46ec99634724a7d32533c8"},
    {3, "983f952622a246a5750538c15d3dfb89c001f850", "53a4fe97efe6f1874757d5055b9db911d6f3a5da"},
    {4, "fb3c36032704fc116f402c255c4ba0d3157cb40e", "17789e7331c5eb50afd1937bdae2ea3461310130"},
    {5, "bd924beedaf4f711af1b311ee5463b17f210ae6c", "ac52ad3dbac4116cbe4949df42c03501daed681d"},
    {6, "49e007e90b3183c1295d77cf5eff975d094760f0", "912681961e2cc6eac94fa3e0a0909d79558d467f"},
    {7, "7a88ac3a3878034def9ba37402f1b29daed6a673", "47bbe47fc800452983c3e27810115598af642b77"},
    {8, "d426b5c854df0f7e630905b9543aeee24cb8b021", "005f0b12d6aef0fbb496ca4c6d476fad368be8af"},
    {9, "24b5b1c545c98f6f0d72da3337b0a52a646d408d", "e3b95168d81ab0e30798ce978181fdb3c82378e3"},
    {10, "94c598329ebda851449686d6f6cf0f01fc4817d2", "ad8197ba48ab628900a4c872fbe8a866d0e81888"},
    {11, "9298db4e22804b3b01d991d701bae41d944daf12", "3149e10e87582592ccacad2ee26dd8ac3190a22e"},
    {12, "c726786eb8ea0dffe088b31cf8282a5a079c6898", "6b43f66d1a853bee08dbb94cf8c9ffd739771703"},
    {13, "aa329b95dc2fa538e72eec49cae7bddd42a53be7", "737d3d35afa6802fba306033905478b64eafcfbb"},
    {14, "54188c30c7158b684b4cdea95577c22e4034520f", "a66a8b28ab04d63c45274f7e840d0ca83f15d427"},
    {15, "d7c9d50b4c9e878aefd0694dde56df298eec01ee", "4ec160dac107a8c11271012000d63cc8823fd87d"},
    {16, "e0599f086ff34e4a876fc14ad49c00ebec2b049a", "1c3964bee7224c318d9cdc6b062c160e22bf8d92"},
    {17, "3fe891f77727c72a36df8bdb550437f359afb674", "8f7d219205edaa237cd40a0ea631b82f2877147e"},
    {18, "4c4a640a0d9b6ca3d9fda81be83492e614c2f3eb", "e585ab4aca45171f09c33e7cb795d36687617162"},
    {19, "a5a03a6fe247ad63528a30e85c799bf44efe18eb", "ec805a4856dde509b39e1ca8a6fd1656469665cf"},
    {20, "2648b434a0df99a929728e6d6d1fa5fa14bd40c2", "e3ec834b30530f1e72c5ed761a01ce37da60b099"},
};

class RecoveryGoldenSeeds : public ::testing::TestWithParam<size_t> {};

TEST_P(RecoveryGoldenSeeds, CrashRecoverSoakHoldsInvariantsAndFingerprints) {
  const GoldenFingerprint& golden = kRecoveryGolden[GetParam()];
  SimConfig config;
  config.seed = golden.seed;
  config.durable_store = true;
  config.schedule.recover_weight = 1.2;
  SimResult result = SimRunner(config).Run();
  ASSERT_TRUE(result.ok) << "seed " << golden.seed << ": " << result.failure;
  EXPECT_EQ(result.schedule_fingerprint, golden.schedule) << "seed " << golden.seed;
  EXPECT_EQ(result.state_fingerprint, golden.state) << "seed " << golden.seed;
  EXPECT_GT(result.recoveries, 0u) << "seed " << golden.seed;
  EXPECT_GT(result.replicas_recovered, 0u) << "seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Golden, RecoveryGoldenSeeds,
                         ::testing::Range(size_t{0}, std::size(kRecoveryGolden)));

}  // namespace
}  // namespace past
