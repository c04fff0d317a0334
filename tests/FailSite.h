//===- tests/FailSite.h - Failure sites of parse error messages -*- C++ -*-===//
//
// Part of flap-cpp, a C++ reproduction of "flap: A Deterministic Parser
// with Fused Lexing" (PLDI 2023).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staged machine and the Fig. 9 interpreter (engine/FusedInterp.h)
/// word their parse errors differently but both name the failing byte
/// ("... at offset N ..."). The differential suites compare that site.
///
//===----------------------------------------------------------------------===//

#ifndef FLAP_TESTS_FAILSITE_H
#define FLAP_TESTS_FAILSITE_H

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace flap {

/// The failure site of \p Msg: whether it is a trailing-input failure,
/// and its offset.
inline std::pair<bool, unsigned long long> failSite(const std::string &Msg) {
  const size_t At = Msg.find("at offset ");
  EXPECT_NE(At, std::string::npos) << Msg;
  if (At == std::string::npos)
    return {false, 0};
  return {Msg.find("trailing input") != std::string::npos,
          std::stoull(Msg.substr(At + 10))};
}

} // namespace flap

#endif // FLAP_TESTS_FAILSITE_H
