from crewsim.agents.base import Abstention, AgentResponse
from crewsim.agents.chat import ChatAgent, ChatClient, ChatEndpointConfig, chat_complete
from crewsim.agents.parsing import parse_response, render_response
from crewsim.agents.prompts import build_prompt, render_observation, role_instructions
from crewsim.agents.scripted import (
    SCRIPTED_CREW_POLICIES,
    SCRIPTED_IMPOSTOR_POLICIES,
    make_scripted_agent,
    make_scripted_roster,
)

__all__ = [
    "Abstention",
    "AgentResponse",
    "ChatAgent",
    "ChatClient",
    "ChatEndpointConfig",
    "chat_complete",
    "parse_response",
    "render_response",
    "build_prompt",
    "render_observation",
    "role_instructions",
    "SCRIPTED_CREW_POLICIES",
    "SCRIPTED_IMPOSTOR_POLICIES",
    "make_scripted_agent",
    "make_scripted_roster",
]
