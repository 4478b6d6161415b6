# CLI contract for meltrace, run as a CTest script:
#   * every subcommand (validate, summarize, matrix, diff, replay,
#     critical) runs against a freshly recorded trace and exits 0,
#   * unknown flags and unknown commands exit 2,
#   * --json output is deterministic (byte-identical across invocations)
#     and carries the expected schema tag,
#   * `replay` with no --set is a fidelity self-check (exit 0 and says
#     "fidelity exact") for NSR, RMA, and NCL traces,
#   * `replay --set` rejects unknown parameters (exit 2) and accepts
#     LogGP aliases (net.L_intra),
#   * a malformed trace (truncated, with trailing garbage, a non-JSON
#     number, or nesting past the parser's depth limit) fails every
#     subcommand with the named parse error: `validate` exits 1, every
#     other subcommand exits 2,
#   * `--top K` must be a positive integer (exit 2 + usage pointer).
# Invoked with -DMELSIM=<path> -DMELTRACE=<path>.
if(NOT DEFINED MELSIM OR NOT DEFINED MELTRACE)
  message(FATAL_ERROR "pass -DMELSIM=<melsim binary> -DMELTRACE=<meltrace binary>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/meltrace_cli_work")
file(MAKE_DIRECTORY ${workdir})

# Record one self-contained trace per representative backend family.
foreach(model NSR RMA NCL)
  execute_process(
    COMMAND ${MELSIM} --model ${model} --ranks 8 --gen er --verts 120
            --edges 700 --trace ${workdir}/${model}.trace.json
            --sample-interval 50000
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "recording ${model} trace failed (${code}): ${err}")
  endif()
endforeach()
set(nsr ${workdir}/NSR.trace.json)
set(rma ${workdir}/RMA.trace.json)
set(ncl ${workdir}/NCL.trace.json)

function(run_ok label expect_out)
  execute_process(
    COMMAND ${MELTRACE} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${label}: expected exit 0, got ${code}: ${err}")
  endif()
  if(NOT "${expect_out}" STREQUAL "" AND NOT out MATCHES "${expect_out}")
    message(FATAL_ERROR "${label}: output missing '${expect_out}':\n${out}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

function(run_rejected label)
  execute_process(
    COMMAND ${MELTRACE} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${label}: expected exit 2, got ${code}: ${out}${err}")
  endif()
endfunction()

function(run_fails label expect_code expect_msg)
  execute_process(
    COMMAND ${MELTRACE} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR
      "${label}: expected exit ${expect_code}, got ${code}: ${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${expect_msg}")
    message(FATAL_ERROR
      "${label}: output missing '${expect_msg}':\n${out}${err}")
  endif()
endfunction()

# All six subcommands succeed against a real trace.
run_ok("validate" "OK" validate ${nsr})
run_ok("summarize" "validation: clean" summarize ${nsr} --top 5)
run_ok("summarize json" "mel.summary/1" summarize ${nsr} --json)
run_ok("matrix" "\"nranks\"" matrix ${nsr})
run_ok("diff" "flows" diff ${nsr} ${ncl})
run_ok("critical" "class breakdown" critical ${nsr} --top 5)
run_ok("critical json" "mel.critical/1" critical ${nsr} --json)
run_ok("help" "usage: meltrace" help)

# Replay fidelity: exit 0 and an explicit "fidelity exact" verdict for
# every backend family's trace.
foreach(trace ${nsr} ${rma} ${ncl})
  run_ok("replay fidelity ${trace}" "fidelity exact" replay ${trace})
endforeach()
run_ok("replay fidelity json" "\"mode\":\"fidelity\"" replay ${nsr} --json)

# What-if replay: substituted params are echoed and re-priced; the LogGP
# alias L_intra resolves to alpha_intra.
run_ok("replay whatif" "what-if replay" replay ${nsr}
       --set net.alpha_intra=1800)
run_ok("replay whatif alias" "alpha_intra" replay ${nsr}
       --set net.L_intra=1800)
run_ok("replay whatif json" "\"mode\":\"whatif\"" replay ${nsr}
       --set net.alpha_intra=1800 --json)

# Determinism: JSON output is byte-identical across invocations.
foreach(args "summarize;${nsr};--json" "critical;${nsr};--json"
        "replay;${nsr};--json" "matrix;${nsr}")
  execute_process(COMMAND ${MELTRACE} ${args} OUTPUT_VARIABLE out1
                  RESULT_VARIABLE c1)
  execute_process(COMMAND ${MELTRACE} ${args} OUTPUT_VARIABLE out2
                  RESULT_VARIABLE c2)
  if(NOT c1 EQUAL 0 OR NOT c2 EQUAL 0 OR NOT out1 STREQUAL out2)
    message(FATAL_ERROR "nondeterministic output for: ${args}")
  endif()
endforeach()

# Usage errors: unknown commands, unknown flags, malformed --set, and
# missing operands all exit 2.
run_rejected("unknown command" frobnicate ${nsr})
run_rejected("validate unknown flag" validate ${nsr} --bogus)
run_rejected("summarize unknown flag" summarize ${nsr} --bogus)
run_rejected("matrix extra operand" matrix ${nsr} extra)
run_rejected("diff one trace" diff ${nsr})
run_rejected("replay unknown flag" replay ${nsr} --bogus)
run_rejected("replay unknown param" replay ${nsr} --set net.bogus=1)
run_rejected("replay malformed set" replay ${nsr} --set alpha_intra)
run_rejected("replay bad value" replay ${nsr} --set alpha_intra=abc)
run_rejected("replay fractional int field" replay ${nsr} --set o_send=1.5)
run_rejected("replay missing trace" replay)
run_rejected("critical unknown flag" critical ${nsr} --bogus)
run_rejected("critical missing trace" critical)
run_rejected("replay nonexistent file" replay ${workdir}/no-such.json)

# A schema-less trace (plain Chrome JSON) is rejected with a pointer at
# re-recording, not a crash.
file(WRITE ${workdir}/bare.json "{\"traceEvents\":[]}")
run_rejected("replay schema-less trace" replay ${workdir}/bare.json)
run_rejected("critical schema-less trace" critical ${workdir}/bare.json)

# Malformed traces: every subcommand goes through the one streaming
# reader, which is exactly as strict as a full JSON parse. A truncated
# file and a file with trailing garbage both fail with the named error.
file(READ ${nsr} nsr_text)
string(LENGTH "${nsr_text}" nsr_len)
math(EXPR cut "${nsr_len} / 2")
string(SUBSTRING "${nsr_text}" 0 ${cut} truncated_text)
file(WRITE ${workdir}/truncated.json "${truncated_text}")
file(WRITE ${workdir}/garbage.json "${nsr_text}garbage}")
foreach(bad truncated garbage)
  set(f ${workdir}/${bad}.json)
  run_fails("validate ${bad}" 1 "JSON parse error at byte" validate ${f})
  run_fails("replay ${bad}" 2 "JSON parse error at byte" replay ${f})
  run_fails("critical ${bad}" 2 "JSON parse error at byte" critical ${f})
  run_fails("summarize ${bad}" 2 "JSON parse error at byte" summarize ${f})
  run_fails("summarize json ${bad}" 2 "JSON parse error at byte"
            summarize ${f} --json)
  run_fails("matrix ${bad}" 2 "JSON parse error at byte" matrix ${f})
  run_fails("diff ${bad} first" 2 "JSON parse error at byte" diff ${f} ${nsr})
  run_fails("diff ${bad} second" 2 "JSON parse error at byte"
            diff ${nsr} ${f})
endforeach()
run_fails("garbage offset" 2 "at byte ${nsr_len}: trailing garbage"
          replay ${workdir}/garbage.json)
# Numbers follow the JSON grammar: strtod-style prefixes are rejected at
# the offending byte, wherever the token sits.
string(REGEX REPLACE "\"ts\":[0-9.]+" "\"ts\":1.2.3" dotted_text "${nsr_text}")
file(WRITE ${workdir}/dotted.json "${dotted_text}")
string(REPLACE "\"pid\":0" "\"pid\":+0" plus_text "${nsr_text}")
file(WRITE ${workdir}/plus.json "${plus_text}")
# A nesting bomb in otherData (the part parsed into a tree) is a named
# error, not a stack overflow.
string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
string(REPLACE "\"otherData\":{" "\"otherData\":{\"x\":${open}${close},"
       deep_text "${nsr_text}")
file(WRITE ${workdir}/deep.json "${deep_text}")
foreach(bad dotted plus deep)
  if(bad STREQUAL "deep")
    set(why "nesting too deep")
  else()
    set(why "malformed number")
  endif()
  set(f ${workdir}/${bad}.json)
  run_fails("validate ${bad}" 1 "JSON parse error at byte [0-9]+: ${why}"
            validate ${f})
  run_fails("replay ${bad}" 2 "JSON parse error at byte [0-9]+: ${why}"
            replay ${f})
  run_fails("critical ${bad}" 2 "JSON parse error at byte [0-9]+: ${why}"
            critical ${f})
  run_fails("summarize ${bad}" 2 "JSON parse error at byte [0-9]+: ${why}"
            summarize ${f})
  run_fails("matrix ${bad}" 2 "JSON parse error at byte [0-9]+: ${why}"
            matrix ${f})
endforeach()
# A parseable trace with schema violations is still a report: summarize
# lists the violations and exits 0, validate exits 1.
file(WRITE ${workdir}/schema.json "{\"traceEvents\":[{\"ph\":\"X\"}]}")
run_fails("summarize schema violation" 0 "event without a string name/ph"
          summarize ${workdir}/schema.json)
run_fails("validate schema violation" 1 "event without a string name/ph"
          validate ${workdir}/schema.json)
# A path that is not a regular file is an input error, not a parse error.
run_fails("validate a directory" 2 "cannot read" validate ${workdir})

# --top K is validated when the arguments are parsed, before the trace
# is read: a positive integer, else exit 2 with a usage pointer.
set(top_err "--top: expected a positive integer.*meltrace help")
foreach(k -1 0 abc 3x)
  run_fails("summarize --top '${k}'" 2 "${top_err}"
            summarize ${nsr} --top "${k}")
  run_fails("critical --top '${k}'" 2 "${top_err}"
            critical ${nsr} --top "${k}")
endforeach()
run_fails("summarize --top too large" 2 "${top_err}"
          summarize ${nsr} --top 99999999999)
run_ok("summarize --top 1" "longest operations" summarize ${nsr} --top 1)
run_ok("critical --top 1" "class breakdown" critical ${nsr} --top 1)
